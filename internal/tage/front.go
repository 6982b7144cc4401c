package tage

import (
	"slices"

	"repro/internal/history"
)

// The history front-end: everything TAGE computes from the branch stream
// alone — the global and path histories, each table's fold word, and
// from them the history half of every bank's index and tag. It reads no
// table, so predictors of one geometry (TaggedLog, TagBits, HistLengths,
// PathBits) fed the same branches compute the same front-end, and a
// Front computes it once for all of them.

// Fold-word layout: a table's three folded histories in one uint64, the
// index fold (c0 = TaggedLog bits) at bit 0, the tag fold (c1 = TagBits)
// at foldO1 and the second tag fold (c2 = TagBits-1) at foldO2. The
// offsets are fixed past the widest fields Validate admits (24 and 16
// bits, each with its spare bit), so extracting a field is a constant
// shift; the word uses bits 0..57.
const (
	foldO1 = 25
	foldO2 = 42
	// foldNewest has bit 0 of each field: where the newest outcome enters.
	foldNewest = 1 | 1<<foldO1 | 1<<foldO2
)

// foldWrap[s] feeds the carry-outs of one advance back into the fields'
// bit 0: s holds the index fold's spare bit at bit 2, the tag fold's at
// bit 1 and the second tag fold's at bit 0 (see foldLayout.gather).
var foldWrap = [8]uint64{
	0, 1 << foldO2, 1 << foldO1, 1<<foldO1 | 1<<foldO2,
	1, 1 | 1<<foldO2, 1 | 1<<foldO1, foldNewest,
}

// foldLayout is the per-geometry part of the fold word: the field
// widths, the mask of the fields, and the spare bit above each field,
// which catches the bit a shift carries out of it.
//
// gather moves the three spare bits to bits 63 (index), 62 (tag) and 61
// (second tag) of a product: spares s0 < s1 < s2 times gather, one
// partial product per set spare. Each spare's own term lands on its
// target bit; a spare times the gather bit of a lower spare lands past
// bit 63 (s2-s1 = 16 keeps the tag term's past it too); the three
// remaining terms land at or below bits 37+c0-c1 <= 59, 45 and
// 19+c0-c2 <= 42, where at most two coincide and carry one bit up, to
// 46 at most. So bits 61..63 of the product are exactly the spares, for
// every geometry Validate admits (TestFoldWordMatchesFolded checks all
// eight spare patterns of each).
type foldLayout struct {
	c0, c1, c2 uint   // field widths
	keep       uint64 // the three fields, spare bits clear
	spares     uint64 // the spare bit above each field
	gather     uint64 // spares * gather >> 61 indexes foldWrap
}

func newFoldLayout(taggedLog, tagBits uint) foldLayout {
	l := foldLayout{c0: taggedLog, c1: tagBits, c2: max(tagBits-1, 1)}
	l.keep = 1<<l.c0 - 1 | (1<<l.c1-1)<<foldO1 | (1<<l.c2-1)<<foldO2
	s0, s1, s2 := l.c0, foldO1+l.c1, foldO2+l.c2
	l.spares = 1<<s0 | 1<<s1 | 1<<s2
	l.gather = 1<<(63-s0) | 1<<(62-s1) | 1<<(61-s2)
	return l
}

// out returns the leaving-bit mask of a table with history length
// histLen: the bit histLen % width of each field.
func (l foldLayout) out(histLen int) uint64 {
	return 1<<(uint(histLen)%l.c0) | 1<<(foldO1+uint(histLen)%l.c1) | 1<<(foldO2+uint(histLen)%l.c2)
}

// fields unpacks a fold word into its index, tag and second tag folds.
func (l foldLayout) fields(w uint64) (idx, tag, tag2 uint64) {
	return w & (1<<l.c0 - 1), w >> foldO1 & (1<<l.c1 - 1), w >> foldO2 & (1<<l.c2 - 1)
}

// pack is fields' inverse. Each value is masked to its field width, as
// history.Folded.SetValue masks, so a corrupt snapshot cannot spill one
// fold into the next.
func (l foldLayout) pack(idx, tag, tag2 uint64) uint64 {
	return idx&(1<<l.c0-1) | (tag&(1<<l.c1-1))<<foldO1 | (tag2&(1<<l.c2-1))<<foldO2
}

// tableFolds is one tagged table's folded-history state: its three
// history compressions packed in one word w (see foldLayout), the
// history length whose oldest bit leaves the fold window on each update,
// and out, the word with one bit set in each field where that leaving
// bit is folded in (bit histLen % width of the field). base is the
// table's first position in the flat entry storage, i<<TaggedLog for
// table i.
type tableFolds struct {
	w       uint64
	out     uint64
	histLen int
	base    uint32
}

// front is a TAGE history front-end. row holds, for the next branch,
// each bank's history hash: the low word is the bank's base position
// with the index fold and the path hash in its row bits, the high word
// the tag's history part, both masked to their widths. Predict XORs the
// branch's pc hash into both, so the row is all a predictor reads of its
// history.
type front struct {
	ghist history.Buffer
	phist history.Path
	folds []tableFolds
	fold  foldLayout

	rowMask, tagMask uint32

	// pathRows is the path-history hash in table form (see
	// newPathTable): the row of path byte k with value v holds every
	// bank's hash of v<<8k, at pathRows[(k<<8|v)*numTables:]. pathBytes
	// is the number of byte tables, at least two. Both are fixed by the
	// geometry, and fronts copied from one another share pathRows.
	pathRows  []uint32
	pathBytes int

	row []uint64
}

func newFront(cfg Config) front {
	m := len(cfg.HistLengths)
	f := front{
		ghist:   *history.NewBuffer(cfg.HistLengths[m-1] + 2),
		phist:   *history.NewPath(cfg.PathBits),
		folds:   make([]tableFolds, m),
		fold:    newFoldLayout(cfg.TaggedLog, cfg.TagBits),
		rowMask: uint32(1)<<cfg.TaggedLog - 1,
		tagMask: uint32(1)<<cfg.TagBits - 1,
		row:     make([]uint64, m),
	}
	widths := make([]uint, m)
	for i, hl := range cfg.HistLengths {
		f.folds[i] = tableFolds{out: f.fold.out(hl), histLen: hl, base: uint32(i) << cfg.TaggedLog}
		widths[i] = cfg.pathWidth(hl)
	}
	f.pathRows, f.pathBytes = newPathTable(cfg.TaggedLog, widths)
	f.hash()
	return f
}

// push advances the front-end past one branch: the outcome and the path
// bit enter the histories, each table's fold word advances, and row is
// rehashed for the next branch.
//
// A fold word takes the new outcome into bit 0 of all three fields, the
// leaving bit at the three positions in out, and each field's carry-out
// (its spare bit) back into its bit 0: history.Folded's update, three
// fields at a time. The carry-outs are gathered by one multiply into an
// index of foldWrap, so the advance has no variable shift.
//
//repro:hotpath
func (f *front) push(pc uint64, taken bool) {
	f.ghist.Push(taken) //repro:allow-bce inlined window write: pos-1 >= 0 after the slide check, pos+size <= len(bits) by NewBuffer's sizing
	f.phist.Push(pc)
	var newest uint64
	if taken {
		newest = foldNewest
	}
	keep, spares, gather := f.fold.keep, f.fold.spares, f.fold.gather
	folds := f.folds
	for t := range folds {
		fl := &folds[t]
		leaving := uint64(f.ghist.Bit(fl.histLen)) //repro:allow-bce inlined window read: pos+histLen < pos+size <= len(bits) by NewBuffer's sizing for the longest history
		w := fl.w<<1 ^ newest ^ fl.out&-leaving
		fl.w = (w ^ foldWrap[(w&spares)*gather>>61]) & keep
	}
	f.hash()
}

// hash computes row from the fold words and the path history. The path
// hash of every bank is the XOR of one row of pathRows per path byte
// (see newPathTable); path widths above 16 bits take one more row per
// byte, in hashWide. Path-table values are below 2^TaggedLog, so they
// leave each bank's base bits alone.
//
//repro:hotpath
func (f *front) hash() {
	folds, row := f.folds, f.row
	m, rows := len(folds), f.pathRows
	if len(row) != m {
		panic("tage: front-end row out of sync with geometry")
	}
	path := f.phist.Value()
	lo := rows[int(path&255)*m:][:m]          //repro:allow-bce row offset v*m + m <= 256*m <= len(pathRows) by newPathTable's sizing
	hi := rows[(256|int(path>>8&255))*m:][:m] //repro:allow-bce row offset (256+v)*m + m <= 512*m <= len(pathRows) by newPathTable's sizing
	rowMask, tagMask := f.rowMask, f.tagMask
	for t := range folds {
		fl := &folds[t]
		w := fl.w
		idx := fl.base | (uint32(w)^lo[t]^hi[t])&rowMask
		tag := uint32(w>>foldO1^(w>>foldO2)<<1) & tagMask
		row[t] = uint64(idx) | uint64(tag)<<32
	}
	if f.pathBytes > 2 {
		f.hashWide(path)
	}
}

// hashWide XORs the path-byte rows past the second into row. It stays
// out of line so that the common two-byte geometries keep hash's loop
// in registers.
//
//repro:hotpath
//go:noinline
func (f *front) hashWide(path uint32) {
	m, rows, row := len(f.folds), f.pathRows, f.row
	if len(row) != m {
		panic("tage: front-end row out of sync with geometry")
	}
	v := path >> 16
	for k := 2; k < f.pathBytes; k++ {
		r := rows[(k<<8|int(v&255))*m:][:m] //repro:allow-bce k < pathBytes, so (k<<8|v)*m + m <= len(pathRows) by newPathTable's sizing
		for i := range row {
			row[i] ^= uint64(r[i])
		}
		v >>= 8
	}
}

// sameGeometry reports whether g advances exactly as f: the same history
// lengths, fold widths and path width. Everything else in a front is
// derived from these.
func (f *front) sameGeometry(g *front) bool {
	return f.fold == g.fold && f.phist.Width() == g.phist.Width() &&
		slices.EqualFunc(f.folds, g.folds, func(a, b tableFolds) bool { return a.histLen == b.histLen })
}

// sameHistory reports whether g has f's geometry and history, so the two
// hash every future branch alike.
func (f *front) sameHistory(g *front) bool {
	return f.sameGeometry(g) && f.phist.Value() == g.phist.Value() && f.ghist.Equal(&g.ghist) &&
		slices.EqualFunc(f.folds, g.folds, func(a, b tableFolds) bool { return a.w == b.w })
}

// copyFrom makes f's history src's; the two must share a geometry.
func (f *front) copyFrom(src *front) {
	f.ghist.CopyFrom(&src.ghist)
	f.phist.SetValue(src.phist.Value())
	for i := range f.folds {
		f.folds[i].w = src.folds[i].w
	}
	copy(f.row, src.row)
}

// clone returns a front with f's geometry and history and storage of its
// own (the immutable path table is shared).
func (f *front) clone() front {
	g := *f
	g.ghist = *history.NewBuffer(f.ghist.Len() - 2)
	g.folds = slices.Clone(f.folds)
	g.row = slices.Clone(f.row)
	g.copyFrom(f)
	return g
}

// Front is one history front-end shared by several predictors of one
// geometry over one branch stream: pushed each branch once, it records
// the hash rows the branch is predicted with, and every predictor
// following it reads those rows instead of advancing a front-end of its
// own. The tables, the automaton and everything else stay per
// predictor, so a following predictor's predictions and tables are
// exactly those of the same predictor run alone.
//
// Protocol, per batch of branches: Reset, Push each branch, then Follow
// on each predictor and run the batch through it, one Predict/Update
// pair per pushed branch, in order. After the last batch, Unfollow on
// each predictor gives it the front's history, the state its own
// front-end would have reached. A following predictor's own history is
// stale until Unfollow, so snapshot it only after that.
type Front struct {
	fe   front
	rows []uint64 // one row per branch pushed since Reset, numTables words each
}

// NewFront returns a front-end starting from p's history, with room for
// batch branches between Resets.
func NewFront(p *Predictor, batch int) *Front {
	return &Front{fe: p.fe.clone(), rows: make([]uint64, 0, batch*p.numTables)}
}

// SameHistory reports whether p and q have one history geometry and the
// same history, so that one Front can serve both.
func (p *Predictor) SameHistory(q *Predictor) bool { return p.fe.sameHistory(&q.fe) }

// Reset empties the batch.
func (f *Front) Reset() { f.rows = f.rows[:0] }

// Push records the row the branch at pc is predicted with (every bank's
// history hash) and advances the history with its outcome. It panics
// when the batch is full.
//
//repro:hotpath
func (f *Front) Push(pc uint64, taken bool) {
	n := len(f.rows)
	copy(f.rows[n:n+len(f.fe.row)], f.fe.row) //repro:allow-bce a full batch panics here: NewFront sized the rows for batch branches
	f.rows = f.rows[:n+len(f.fe.row)]
	f.fe.push(pc, taken)
}

// Follow makes p predict the front's current batch: each Predict reads
// the next recorded row, and Update leaves p's own history alone. p must
// have the front's geometry.
func (p *Predictor) Follow(f *Front) {
	if !p.fe.sameGeometry(&f.fe) {
		panic("tage: Follow of a front-end with another geometry")
	}
	// Capacity cut to the batch: Predict past its end must panic, not
	// read the rows of an earlier batch.
	p.rows = f.rows[:len(f.rows):len(f.rows)]
	p.following = true
}

// Unfollow returns p to its own front-end, set to the front's history.
func (p *Predictor) Unfollow(f *Front) {
	p.fe.copyFrom(&f.fe)
	p.rows = p.fe.row
	p.following = false
}
