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
// generated traces can be exported, inspected and re-read; Read and
// ReadFile load a whole file into a Mem.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
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
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return decode(data)
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
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decode(data)
}

// decode parses one serialized trace, decoding every record with
// DecodeRecord, the codec the serve wire protocol also uses.
func decode(data []byte) (*Mem, error) {
	if len(data) < len(magic) || [4]byte(data) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, data[:min(len(data), len(magic))])
	}
	src := data[len(magic):]
	nameLen, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, fmt.Errorf("%w: name length: truncated varint", ErrBadFormat)
	}
	src = src[n:]
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("%w: unreasonable name length %d", ErrBadFormat, nameLen)
	}
	if nameLen > uint64(len(src)) {
		return nil, fmt.Errorf("%w: name: %d of %d bytes", ErrBadFormat, len(src), nameLen)
	}
	name := string(src[:nameLen])
	src = src[nameLen:]
	count, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, fmt.Errorf("%w: count: truncated varint", ErrBadFormat)
	}
	src = src[n:]
	// The count field is untrusted until the records back it up. Every
	// record takes at least two bytes, so a count the remaining bytes
	// cannot hold is rejected before anything count-sized is reserved.
	if count > 1<<32 || count > uint64(len(src))/2 {
		return nil, fmt.Errorf("%w: %d records in %d bytes", ErrBadFormat, count, len(src))
	}
	out := &Mem{TraceName: name, Records: make([]Branch, count)}
	prevPC := uint64(0)
	for i := range out.Records {
		b, n, pc, err := DecodeRecord(src, prevPC)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		out.Records[i] = b
		src, prevPC = src[n:], pc
	}
	return out, nil
}

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
}

func (r *limitReader) Next() (Branch, error) {
	if r.left == 0 {
		return Branch{}, io.EOF
	}
	r.left--
	return r.inner.Next()
}
