// Package trace defines the branch-trace model used by every simulator in
// this repository: a stream of conditional-branch records, each carrying the
// branch address, its outcome, and the number of dynamic instructions the
// record accounts for (the branch plus the non-branch instructions preceding
// it), so that misprediction rates can be reported per kilo-instruction
// (misp/KI) exactly as the paper does.
//
// The paper evaluates on the CBP-1 and CBP-2 championship trace sets, which
// are not redistributable; internal/workload provides deterministic
// synthetic Trace implementations standing in for them (see its package doc).
// This package additionally provides a compact binary on-disk format so
// generated traces can be exported, inspected and re-read.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
)

// Branch is one dynamic conditional branch.
type Branch struct {
	// PC is the address of the branch instruction.
	PC uint64
	// Taken is the resolved direction.
	Taken bool
	// Instr is the number of dynamic instructions this record accounts for:
	// the branch itself plus the non-branch instructions executed since the
	// previous record. It is at least 1.
	Instr uint32
}

// Reader yields the records of one pass over a trace. Next returns io.EOF
// after the last record.
//
// A Reader holding releasable resources (an open file, pooled decode or
// generator state) may additionally implement Close(); Limit probes for
// it so truncated passes release those resources immediately instead of
// holding them until their natural EOF. A Reader must not be used again
// after Close or after it has returned io.EOF — its state may be
// recycled into the next Open of the same trace.
type Reader interface {
	Next() (Branch, error)
}

// Trace is a named, replayable branch trace: Open returns a fresh Reader
// positioned at the first record. Implementations must be deterministic —
// every Open yields the identical stream.
type Trace interface {
	Name() string
	Open() Reader
}

// Mem is an in-memory trace.
type Mem struct {
	TraceName string
	Records   []Branch
}

// Name implements Trace.
func (m *Mem) Name() string { return m.TraceName }

// Open implements Trace.
func (m *Mem) Open() Reader { return &memReader{records: m.Records} }

type memReader struct {
	records []Branch
	pos     int
}

func (r *memReader) Next() (Branch, error) {
	if r.pos >= len(r.records) {
		return Branch{}, io.EOF
	}
	b := r.records[r.pos]
	r.pos++
	return b, nil
}

// Collect reads an entire trace into memory. It is intended for tests and
// tools; simulation drivers should stream.
func Collect(t Trace) ([]Branch, error) {
	r := t.Open()
	var out []Branch
	for {
		b, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
}

// Stats summarizes a branch stream.
type Stats struct {
	Branches     uint64
	Taken        uint64
	Instructions uint64
	UniquePCs    int
	MinPC, MaxPC uint64
}

// TakenRate returns the fraction of taken branches.
func (s Stats) TakenRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Taken) / float64(s.Branches)
}

// InstrPerBranch returns the mean dynamic instructions per branch record.
func (s Stats) InstrPerBranch() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Branches)
}

func (s Stats) String() string {
	return fmt.Sprintf("branches=%d taken=%.1f%% instr=%d (%.2f/branch) staticPCs=%d",
		s.Branches, 100*s.TakenRate(), s.Instructions, s.InstrPerBranch(), s.UniquePCs)
}

// Measure computes Stats for a trace in one streaming pass.
func Measure(t Trace) (Stats, error) {
	r := t.Open()
	var s Stats
	pcs := make(map[uint64]struct{})
	first := true
	for {
		b, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return Stats{}, err
		}
		s.Branches++
		s.Instructions += uint64(b.Instr)
		if b.Taken {
			s.Taken++
		}
		pcs[b.PC] = struct{}{}
		if first || b.PC < s.MinPC {
			s.MinPC = b.PC
		}
		if first || b.PC > s.MaxPC {
			s.MaxPC = b.PC
		}
		first = false
	}
	s.UniquePCs = len(pcs)
	return s, nil
}

// Binary trace format ("TBT1"):
//
//	magic   [4]byte  "TBT1"
//	name    uvarint length + bytes
//	count   uvarint  number of records
//	records: per record
//	    pcDelta  svarint (signed delta from previous PC; first is from 0)
//	    packed   uvarint ((Instr-1) << 1 | taken)
//
// PC deltas compress well because synthetic programs revisit a small static
// footprint; Instr is almost always < 64 so packed fits in one byte.

var magic = [4]byte{'T', 'B', 'T', '1'}

// ErrBadFormat reports a malformed or truncated trace file.
var ErrBadFormat = errors.New("trace: bad file format")

// AppendRecord appends one branch record to dst in the TBT1 per-record
// encoding (pcDelta svarint relative to prevPC, then (Instr-1)<<1|taken
// uvarint) and returns the extended buffer plus the new previous PC. It
// is the single definition of the record codec, shared by the file
// writer and the serve wire protocol. Records with Instr == 0 are not
// representable; AppendRecord encodes them as Instr == 1.
//
//repro:hotpath
func AppendRecord(dst []byte, prevPC uint64, b Branch) ([]byte, uint64) {
	dst = binary.AppendVarint(dst, int64(b.PC)-int64(prevPC))
	instr := b.Instr
	if instr == 0 {
		instr = 1
	}
	packed := uint64(instr-1) << 1
	if b.Taken {
		packed |= 1
	}
	return binary.AppendUvarint(dst, packed), b.PC
}

// DecodeRecord decodes one branch record from src (the inverse of
// AppendRecord), returning the record, the number of bytes consumed and
// the new previous PC. A truncated or malformed record, or one whose
// instruction count does not fit a uint32, yields an ErrBadFormat-wrapped
// error and consumes nothing.
//
//repro:hotpath
func DecodeRecord(src []byte, prevPC uint64) (Branch, int, uint64, error) {
	delta, n := binary.Varint(src)
	if n <= 0 {
		return Branch{}, 0, prevPC, fmt.Errorf("%w: pc: truncated varint", ErrBadFormat)
	}
	packed, n2 := binary.Uvarint(src[n:])
	if n2 <= 0 {
		return Branch{}, 0, prevPC, fmt.Errorf("%w: packed: truncated varint", ErrBadFormat)
	}
	if packed>>1 >= math.MaxUint32 {
		return Branch{}, 0, prevPC, fmt.Errorf("%w: instruction count %d out of range", ErrBadFormat, packed>>1+1)
	}
	pc := uint64(int64(prevPC) + delta)
	b := Branch{PC: pc, Taken: packed&1 == 1, Instr: uint32(packed>>1) + 1}
	return b, n + n2, pc, nil
}

// Write serializes a record stream to w. The record count must be known up
// front, so Write drains the given Reader fully.
func Write(w io.Writer, name string, r Reader) (n uint64, err error) {
	var records []Branch
	for {
		b, e := r.Next()
		if errors.Is(e, io.EOF) {
			break
		}
		if e != nil {
			return 0, e
		}
		records = append(records, b)
	}
	return uint64(len(records)), writeRecords(w, name, records)
}

func writeRecords(w io.Writer, name string, records []Branch) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := put(uint64(len(name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(name); err != nil {
		return err
	}
	if err := put(uint64(len(records))); err != nil {
		return err
	}
	prevPC := uint64(0)
	var rec [2 * binary.MaxVarintLen64]byte
	for _, r := range records {
		if r.Instr == 0 {
			return fmt.Errorf("trace: record with zero instruction count at pc %#x", r.PC)
		}
		var enc []byte
		enc, prevPC = AppendRecord(rec[:0], prevPC, r)
		if _, err := bw.Write(enc); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a serialized trace fully into memory.
func Read(r io.Reader) (*Mem, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if m != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, m[:])
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: name length: %v", ErrBadFormat, err)
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("%w: unreasonable name length %d", ErrBadFormat, nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return nil, fmt.Errorf("%w: name: %v", ErrBadFormat, err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: count: %v", ErrBadFormat, err)
	}
	if count > 1<<32 {
		return nil, fmt.Errorf("%w: unreasonable record count %d", ErrBadFormat, count)
	}
	// The count field is attacker-controlled until the records back it up:
	// cap the up-front reservation so a hostile header cannot demand gigabytes
	// before a single record parses. Larger traces grow via append, which
	// only commits memory the stream has actually delivered.
	reserve := min(count, 1<<20)
	out := &Mem{TraceName: string(nameBuf), Records: make([]Branch, 0, reserve)}
	prevPC := uint64(0)
	for i := uint64(0); i < count; i++ {
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d pc: %v", ErrBadFormat, i, err)
		}
		pc := uint64(int64(prevPC) + delta)
		prevPC = pc
		packed, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d packed: %v", ErrBadFormat, i, err)
		}
		if packed>>1 >= math.MaxUint32 {
			return nil, fmt.Errorf("%w: record %d: instruction count %d out of range", ErrBadFormat, i, packed>>1+1)
		}
		out.Records = append(out.Records, Branch{
			PC:    pc,
			Taken: packed&1 == 1,
			Instr: uint32(packed>>1) + 1,
		})
	}
	return out, nil
}

// WriteFile serializes a trace to the named file.
func WriteFile(path string, t Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := Write(f, t.Name(), t.Open()); err != nil {
		return err
	}
	return f.Close()
}

// ReadFile loads a trace file written by WriteFile.
func ReadFile(path string) (*Mem, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// OpenFile returns a Trace backed by a file without loading it into
// memory: each Open re-reads the file, decoding records on demand. The
// header is validated eagerly so a malformed file fails at OpenFile time.
func OpenFile(path string) (Trace, error) {
	ft := &fileTrace{path: path}
	r, err := ft.open()
	if err != nil {
		return nil, err
	}
	ft.name = r.name
	return ft, nil
}

type fileTrace struct {
	path string
	name string
}

func (t *fileTrace) Name() string { return t.name }

// Open implements Trace. Errors opening the file surface through the
// first Next call.
func (t *fileTrace) Open() Reader {
	r, err := t.open()
	if err != nil {
		return errReader{err}
	}
	return r
}

// fileBufSize is the chunk size of the streaming file decoder. 64 KiB
// amortizes syscalls well while staying cache-resident.
const fileBufSize = 64 * 1024

// fileBufPool recycles decode chunks across Opens, so repeated passes over
// file traces (suite re-runs, parallel workers) allocate no new buffers in
// steady state.
var fileBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, fileBufSize)
		return &b
	},
}

func (t *fileTrace) open() (*fileReader, error) {
	f, err := os.Open(t.path)
	if err != nil {
		return nil, err
	}
	bp := fileBufPool.Get().(*[]byte)
	r := &fileReader{f: f, bufp: bp, buf: *bp}
	fail := func(err error) (*fileReader, error) {
		r.close()
		return nil, err
	}
	var m [4]byte
	if err := r.readFull(m[:]); err != nil {
		return fail(fmt.Errorf("%w: %v", ErrBadFormat, err))
	}
	if m != magic {
		return fail(fmt.Errorf("%w: bad magic %q", ErrBadFormat, m[:]))
	}
	nameLen, err := r.uvarint()
	if err != nil || nameLen > 1<<16 {
		return fail(fmt.Errorf("%w: name length", ErrBadFormat))
	}
	nameBuf := make([]byte, nameLen)
	if err := r.readFull(nameBuf); err != nil {
		return fail(fmt.Errorf("%w: name: %v", ErrBadFormat, err))
	}
	count, err := r.uvarint()
	if err != nil {
		return fail(fmt.Errorf("%w: count: %v", ErrBadFormat, err))
	}
	r.name = string(nameBuf)
	r.left = count
	return r, nil
}

type errReader struct{ err error }

func (e errReader) Next() (Branch, error) { return Branch{}, e.err }

// fileReader streams records out of a trace file through a reusable chunk
// buffer, decoding varints directly from the chunk (no per-byte interface
// calls, no per-record allocations).
type fileReader struct {
	f      *os.File
	name   string
	left   uint64
	prevPC uint64

	buf      []byte
	bufp     *[]byte // pooled backing array, returned on close
	pos, end int
	eof      bool
	closed   bool
	err      error // sticky result returned by every Next after close
}

// refill slides the unread tail to the front of the chunk and fills the
// rest from the file.
func (r *fileReader) refill() error {
	if r.pos > 0 {
		copy(r.buf, r.buf[r.pos:r.end])
		r.end -= r.pos
		r.pos = 0
	}
	for r.end < len(r.buf) && !r.eof {
		n, err := r.f.Read(r.buf[r.end:])
		r.end += n
		if err == io.EOF || (err == nil && n == 0) {
			r.eof = true
			break
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// readFull copies len(p) bytes out of the stream (header fields only).
func (r *fileReader) readFull(p []byte) error {
	for len(p) > 0 {
		if r.pos == r.end {
			if r.eof {
				return io.ErrUnexpectedEOF
			}
			if err := r.refill(); err != nil {
				return err
			}
			continue
		}
		n := copy(p, r.buf[r.pos:r.end])
		r.pos += n
		p = p[n:]
	}
	return nil
}

// uvarint decodes one unsigned varint from the chunk, refilling if the
// remaining window could truncate it.
func (r *fileReader) uvarint() (uint64, error) {
	if r.end-r.pos < binary.MaxVarintLen64 && !r.eof {
		if err := r.refill(); err != nil {
			return 0, err
		}
	}
	v, n := binary.Uvarint(r.buf[r.pos:r.end])
	if n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	r.pos += n
	return v, nil
}

// Next implements Reader, decoding one record; the underlying file closes
// automatically at EOF or on the first decode error, and every later Next
// repeats that final result.
func (r *fileReader) Next() (Branch, error) {
	if r.closed {
		return Branch{}, r.err
	}
	if r.left == 0 {
		r.fail(io.EOF)
		return Branch{}, io.EOF
	}
	// One refill check covers both varints of the record.
	if r.end-r.pos < 2*binary.MaxVarintLen64 && !r.eof {
		if err := r.refill(); err != nil {
			return Branch{}, r.fail(fmt.Errorf("%w: read: %v", ErrBadFormat, err))
		}
	}
	b, n, pc, err := DecodeRecord(r.buf[r.pos:r.end], r.prevPC)
	if err != nil {
		return Branch{}, r.fail(err)
	}
	r.pos += n
	r.prevPC = pc
	r.left--
	return b, nil
}

// fail closes the reader with a sticky result and returns it.
func (r *fileReader) fail(err error) error {
	if !r.closed {
		r.closed = true
		r.err = err
		r.pos, r.end = 0, 0
		r.f.Close()
		if r.bufp != nil {
			fileBufPool.Put(r.bufp)
			r.buf, r.bufp = nil, nil
		}
	}
	return r.err
}

// close releases the reader early (limit truncation); later Nexts see EOF.
func (r *fileReader) close() { r.fail(io.EOF) }

// Close implements the exported release hook Limit probes for. (The
// unexported close above remains for package-internal error paths; an
// unexported method could never satisfy a cross-package interface probe.)
func (r *fileReader) Close() { r.close() }

// Limit wraps a trace, truncating every pass after max records. A max of 0
// means no limit. It is how experiment harnesses run shortened simulations.
func Limit(t Trace, max uint64) Trace {
	if max == 0 {
		return t
	}
	return &limited{inner: t, max: max}
}

type limited struct {
	inner Trace
	max   uint64
}

func (l *limited) Name() string { return l.inner.Name() }

func (l *limited) Open() Reader { return &limitReader{inner: l.inner.Open(), left: l.max} }

type limitReader struct {
	inner Reader
	left  uint64
	err   error // sticky result repeated once the inner reader is released
}

// Close releases the wrapped reader early (abandoned passes — e.g. a
// serving client whose session died mid-replay). Safe after EOF or a
// prior Close: the wrapper has already dropped its inner reference by
// then, so a recycled reader can never be touched.
func (r *limitReader) Close() {
	if r.inner == nil {
		return
	}
	if c, ok := r.inner.(interface{ Close() }); ok {
		c.Close()
	}
	r.inner, r.err = nil, io.EOF
}

func (r *limitReader) Next() (Branch, error) {
	if r.inner == nil {
		return Branch{}, r.err
	}
	if r.left == 0 {
		// Release resources held by truncated inner readers (file
		// descriptor, pooled decode buffer, recycled generator state) that
		// would otherwise only be freed when drained to their natural EOF.
		if c, ok := r.inner.(interface{ Close() }); ok {
			c.Close()
		}
		r.inner, r.err = nil, io.EOF
		return Branch{}, io.EOF
	}
	b, err := r.inner.Next()
	if err != nil {
		// The inner reader finished on its own (natural EOF or a sticky
		// decode error) and may already have recycled itself into another
		// Open of the same trace; drop the reference on this path too so
		// the wrapper can never touch a reader live in another pass.
		r.inner, r.err = nil, err
		return b, err
	}
	r.left--
	return b, nil
}
