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
// ReadFile load a whole file into a Mem. The file and the serve wire
// protocol share one record codec, AppendRecords and DecodeRecords.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
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

// AppendRecords appends recs to dst in the TBT1 record encoding, the one
// record codec of this module: the trace file's record section and the
// serve wire protocol's FrameBatch payload are both its output. PC
// deltas start from 0 at recs[0], so the encoding is self-contained.
// A record whose PC delta and packed field each fit one varint byte
// (most records: synthetic programs revisit a small static footprint)
// is written inline; any other goes through appendRecord. Records with
// Instr == 0 are not representable and are encoded as Instr == 1.
//
//repro:hotpath
func AppendRecords(dst []byte, recs []Branch) []byte {
	prevPC := uint64(0)
	for _, b := range recs {
		delta := int64(b.PC - prevPC)
		packed := uint64(max(b.Instr, 1)-1) << 1
		if b.Taken {
			packed |= 1
		}
		if uint64(delta+64) < 0x80 && packed < 0x80 {
			// One zigzag byte for delta in [-64, 63], as binary.AppendVarint.
			dst = append(dst, byte(delta<<1^delta>>63), byte(packed))
		} else {
			dst = appendRecord(dst, delta, packed)
		}
		prevPC = b.PC
	}
	return dst
}

// appendRecord appends one record in the general form: the PC delta as
// a zigzag varint, then the packed (Instr-1)<<1|taken field as a
// uvarint.
func appendRecord(dst []byte, delta int64, packed uint64) []byte {
	return binary.AppendUvarint(binary.AppendVarint(dst, delta), packed)
}

// DecodeRecords decodes count records written by AppendRecords from the
// head of src, appends them to dst and returns the extended slice and
// the number of bytes consumed. count is untrusted: every record takes
// at least two bytes, so a count src cannot hold is rejected before dst
// is grown. A truncated or malformed record, or one whose instruction
// count does not fit a uint32, is rejected too. Every error wraps
// ErrBadFormat and comes with dst at its original length and 0 bytes
// consumed.
//
//repro:hotpath
func DecodeRecords(dst []Branch, src []byte, count uint64) ([]Branch, int, error) {
	if count > uint64(len(src))/2 {
		return dst, 0, countError(count, len(src))
	}
	n := int(count)
	out := dst
	if cap(out)-len(out) < n {
		out = grow(out, n)
	}
	recs := out[len(out) : len(out)+n] //repro:allow-bce 0 <= n by the count check, and grow left cap(out) >= len(out)+n
	out = out[:len(out)+n]
	rest := src
	prevPC := uint64(0)
	for i := range recs {
		if len(rest) >= 2 && rest[0] < 0x80 && rest[1] < 0x80 {
			zz, packed := rest[0], rest[1]
			rest = rest[2:]
			prevPC += uint64(int64(zz>>1) ^ -int64(zz&1))
			recs[i] = Branch{PC: prevPC, Taken: packed&1 == 1, Instr: uint32(packed>>1) + 1}
			continue
		}
		b, k, err := decodeRecord(rest, prevPC)
		if err != nil {
			return dst, 0, recordError(i, err)
		}
		rest = rest[k:] //repro:allow-bce decodeRecord consumes at most len(rest) bytes
		recs[i], prevPC = b, b.PC
	}
	return out, len(src) - len(rest), nil
}

// grow returns dst with room for n more records: DecodeRecords's one
// allocation, made once per call and only when the caller's buffer is
// too small. It stays out of line so the decode loop carries no heap
// site; the runtime alloc pins check that a reused buffer never grows.
//
//go:noinline
func grow(dst []Branch, n int) []Branch {
	return slices.Grow(dst, n)
}

// decodeRecord decodes one record in the general form (the inverse of
// appendRecord) relative to prevPC, returning it and the number of
// bytes it took.
func decodeRecord(src []byte, prevPC uint64) (Branch, int, error) {
	delta, n := binary.Varint(src)
	if n <= 0 {
		return Branch{}, 0, fmt.Errorf("%w: pc: truncated varint", ErrBadFormat)
	}
	packed, n2 := binary.Uvarint(src[n:])
	if n2 <= 0 {
		return Branch{}, 0, fmt.Errorf("%w: packed: truncated varint", ErrBadFormat)
	}
	if packed>>1 >= math.MaxUint32 {
		return Branch{}, 0, fmt.Errorf("%w: instruction count %d out of range", ErrBadFormat, packed>>1+1)
	}
	pc := prevPC + uint64(delta)
	return Branch{PC: pc, Taken: packed&1 == 1, Instr: uint32(packed>>1) + 1}, n + n2, nil
}

// countError and recordError build DecodeRecords's errors. They stay
// out of line so the values they box are not heap sites of the decode
// loop.
//
//go:noinline
func countError(count uint64, n int) error {
	return fmt.Errorf("%w: %d records in %d bytes", ErrBadFormat, count, n)
}

//go:noinline
func recordError(i int, err error) error {
	return fmt.Errorf("record %d: %w", i, err)
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
	for _, r := range records {
		if r.Instr == 0 {
			return fmt.Errorf("trace: record with zero instruction count at pc %#x", r.PC)
		}
	}
	buf := append([]byte(nil), magic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	buf = append(buf, name...)
	buf = binary.AppendUvarint(buf, uint64(len(records)))
	_, err := w.Write(AppendRecords(buf, records))
	return err
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

// decode parses one serialized trace; its records go through
// DecodeRecords, the codec the serve wire protocol also uses.
func decode(data []byte) (*Mem, error) {
	name, count, src, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	records, _, err := DecodeRecords(nil, src, count)
	if err != nil {
		return nil, err
	}
	return &Mem{TraceName: name, Records: records}, nil
}

// decodeHeader parses the magic, name and record count of a serialized
// trace and returns them with the record bytes that follow.
func decodeHeader(data []byte) (name string, count uint64, records []byte, err error) {
	if len(data) < len(magic) || [4]byte(data) != magic {
		return "", 0, nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, data[:min(len(data), len(magic))])
	}
	src := data[len(magic):]
	nameLen, n := binary.Uvarint(src)
	if n <= 0 {
		return "", 0, nil, fmt.Errorf("%w: name length: truncated varint", ErrBadFormat)
	}
	src = src[n:]
	if nameLen > 1<<16 {
		return "", 0, nil, fmt.Errorf("%w: unreasonable name length %d", ErrBadFormat, nameLen)
	}
	if nameLen > uint64(len(src)) {
		return "", 0, nil, fmt.Errorf("%w: name: %d of %d bytes", ErrBadFormat, len(src), nameLen)
	}
	name = string(src[:nameLen])
	src = src[nameLen:]
	count, n = binary.Uvarint(src)
	if n <= 0 {
		return "", 0, nil, fmt.Errorf("%w: count: truncated varint", ErrBadFormat)
	}
	return name, count, src[n:], nil
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
