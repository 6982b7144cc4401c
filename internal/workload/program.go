package workload

import (
	"fmt"
	"io"

	"repro/internal/history"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// histCapacity bounds the lags correlated behaviors may use.
const histCapacity = 512

// DefaultLength is the number of branch records per trace pass when a
// Program does not specify one.
const DefaultLength = 1_000_000

// Site is one static conditional branch of a Program.
type Site struct {
	// PC is the branch address.
	PC uint64
	// Behavior is the outcome law.
	Behavior Behavior
	// Instr is the number of dynamic instructions the branch record
	// accounts for (the branch plus preceding non-branch instructions).
	// Must be >= 1; Build defaults it to 5.
	Instr uint32
}

// Block is a weighted schedulable unit: a run of sites executed in order.
// When activated, the block body executes between MinRep and MaxRep times
// consecutively, giving the stream loop-style temporal locality.
type Block struct {
	Sites          []int
	Weight         int
	MinRep, MaxRep int
}

// Program is a synthetic workload implementing trace.Trace. All randomness
// derives from Seed, so every Open replays the identical stream. Each Open
// builds fresh per-site state; a Program is never modified by its readers.
type Program struct {
	ProgName string
	Seed     uint64
	Sites    []Site
	Blocks   []Block
	// Length is the number of branch records per pass (DefaultLength if 0).
	Length uint64
}

// Name implements trace.Trace.
func (p *Program) Name() string { return p.ProgName }

// Validate checks structural invariants: at least one block with positive
// weight, all site indices in range, sane repetition bounds.
func (p *Program) Validate() error {
	if len(p.Sites) == 0 {
		return fmt.Errorf("workload %s: no sites", p.ProgName)
	}
	if len(p.Blocks) == 0 {
		return fmt.Errorf("workload %s: no blocks", p.ProgName)
	}
	totalWeight := 0
	for bi, b := range p.Blocks {
		if len(b.Sites) == 0 {
			return fmt.Errorf("workload %s: block %d empty", p.ProgName, bi)
		}
		if b.Weight < 0 {
			return fmt.Errorf("workload %s: block %d negative weight", p.ProgName, bi)
		}
		totalWeight += b.Weight
		if b.MinRep < 1 || b.MaxRep < b.MinRep {
			return fmt.Errorf("workload %s: block %d bad repetition bounds [%d,%d]",
				p.ProgName, bi, b.MinRep, b.MaxRep)
		}
		for _, si := range b.Sites {
			if si < 0 || si >= len(p.Sites) {
				return fmt.Errorf("workload %s: block %d references site %d of %d",
					p.ProgName, bi, si, len(p.Sites))
			}
		}
	}
	if totalWeight <= 0 {
		return fmt.Errorf("workload %s: total block weight is zero", p.ProgName)
	}
	for si, s := range p.Sites {
		if s.Behavior == nil {
			return fmt.Errorf("workload %s: site %d has no behavior", p.ProgName, si)
		}
	}
	return nil
}

// Open implements trace.Trace.
func (p *Program) Open() trace.Reader {
	if err := p.Validate(); err != nil {
		// A malformed Program is a programming error in a recipe, caught by
		// the suite tests; fail loudly rather than emit a corrupt stream.
		panic(err)
	}
	root := xrand.New(p.Seed)
	r := &progReader{
		prog: p,
		env: Env{
			hist: history.NewBuffer(histCapacity),
		},
		length: p.Length,
	}
	root.DeriveInto(0xB10C, &r.sched)
	if r.length == 0 {
		r.length = DefaultLength
	}
	r.instances = make([]Instance, len(p.Sites))
	r.siteRands = make([]xrand.Rand, len(p.Sites))
	r.instRands = make([]xrand.Rand, len(p.Sites))
	for i, s := range p.Sites {
		root.DeriveInto(0x517E0000+uint64(i), &r.siteRands[i])
		r.siteRands[i].DeriveInto(1, &r.instRands[i])
		r.instances[i] = s.Behavior.New(&r.instRands[i])
	}
	r.cumWeights = make([]int, len(p.Blocks))
	sum := 0
	for i, b := range p.Blocks {
		sum += b.Weight
		r.cumWeights[i] = sum
	}
	r.totalWeight = sum
	return r
}

type progReader struct {
	prog        *Program
	sched       xrand.Rand
	env         Env
	instances   []Instance
	siteRands   []xrand.Rand // per-site streams handed to Env.Rand
	instRands   []xrand.Rand // per-site streams handed to Behavior.New
	cumWeights  []int
	totalWeight int

	curBlock int
	queuePos int // position within current block's site list
	inBlock  bool
	repsLeft int

	emitted uint64
	length  uint64
}

func (r *progReader) pickBlock() int {
	w := r.sched.Intn(r.totalWeight)
	// Linear scan: block counts are small (tens), and the scan order is
	// deterministic.
	for i, cw := range r.cumWeights {
		if w < cw {
			return i
		}
	}
	return len(r.cumWeights) - 1
}

func (r *progReader) Next() (trace.Branch, error) {
	if r.emitted >= r.length {
		return trace.Branch{}, io.EOF
	}
	if !r.inBlock {
		if r.repsLeft > 0 {
			r.repsLeft--
		} else {
			r.curBlock = r.pickBlock()
			b := &r.prog.Blocks[r.curBlock]
			r.repsLeft = b.MinRep + r.sched.Intn(b.MaxRep-b.MinRep+1) - 1
		}
		r.queuePos = 0
		r.inBlock = true
	}
	block := &r.prog.Blocks[r.curBlock]
	siteIdx := block.Sites[r.queuePos]
	r.queuePos++
	if r.queuePos >= len(block.Sites) {
		r.inBlock = false
	}
	site := &r.prog.Sites[siteIdx]
	r.env.Rand = &r.siteRands[siteIdx]
	taken := r.instances[siteIdx].Next(&r.env)
	r.env.hist.Push(taken)
	r.emitted++
	instr := site.Instr
	if instr == 0 {
		instr = 5
	}
	return trace.Branch{PC: site.PC, Taken: taken, Instr: instr}, nil
}

// Builder assembles a Program from behavior specs, assigning branch
// addresses automatically so that static footprint grows with the number of
// sites (which is what creates bimodal aliasing pressure on the small
// predictor, as in the paper's server traces).
type Builder struct {
	prog      *Program
	nextPC    uint64
	buildRand *xrand.Rand
}

// NewBuilder starts a Program with the given name and master seed.
func NewBuilder(name string, seed uint64) *Builder {
	return &Builder{
		prog: &Program{
			ProgName: name,
			Seed:     seed,
		},
		nextPC:    0x0040_0000,
		buildRand: xrand.New(xrand.Mix64(seed ^ 0xBEEF)),
	}
}

// SetLength sets the records-per-pass length of the program.
func (b *Builder) SetLength(n uint64) *Builder {
	b.prog.Length = n
	return b
}

// SiteDef pairs a behavior with its instruction gap for Block.
type SiteDef struct {
	Behavior Behavior
	Instr    uint32
}

// S is shorthand for a SiteDef with the default instruction gap.
func S(behavior Behavior) SiteDef { return SiteDef{Behavior: behavior} }

// SI is shorthand for a SiteDef with an explicit instruction gap.
func SI(behavior Behavior, instr uint32) SiteDef {
	return SiteDef{Behavior: behavior, Instr: instr}
}

func (b *Builder) addSite(d SiteDef) int {
	instr := d.Instr
	if instr == 0 {
		instr = uint32(4 + b.buildRand.Intn(9)) // 4..12 instructions/branch
	}
	// Advance the PC by a realistic basic-block size (aligned).
	b.nextPC += uint64(4 * (2 + b.buildRand.Intn(8)))
	idx := len(b.prog.Sites)
	b.prog.Sites = append(b.prog.Sites, Site{
		PC:       b.nextPC,
		Behavior: d.Behavior,
		Instr:    instr,
	})
	return idx
}

// Block appends a block of fresh sites with the given schedule weight and
// repetition bounds, returning the builder for chaining.
func (b *Builder) Block(weight, minRep, maxRep int, defs ...SiteDef) *Builder {
	idxs := make([]int, len(defs))
	for i, d := range defs {
		idxs[i] = b.addSite(d)
	}
	b.prog.Blocks = append(b.prog.Blocks, Block{
		Sites:  idxs,
		Weight: weight,
		MinRep: minRep,
		MaxRep: maxRep,
	})
	return b
}

// Footprint appends nBlocks blocks of sitesPerBlock fresh sites whose
// behaviors come from gen(i). It models large-code-footprint workloads
// (databases, servers): many distinct branch addresses, each individually
// easy, which together thrash small tables.
func (b *Builder) Footprint(nBlocks, sitesPerBlock, weight, minRep, maxRep int, gen func(i int) SiteDef) *Builder {
	n := 0
	for bi := 0; bi < nBlocks; bi++ {
		defs := make([]SiteDef, sitesPerBlock)
		for si := range defs {
			defs[si] = gen(n)
			n++
		}
		b.Block(weight, minRep, maxRep, defs...)
	}
	return b
}

// Gap inserts address space between consecutive sites (models code regions
// far apart, spreading bimodal indices).
func (b *Builder) Gap(bytes uint64) *Builder {
	b.nextPC += bytes
	return b
}

// Build finalizes and validates the Program.
func (b *Builder) Build() (*Program, error) {
	if err := b.prog.Validate(); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// MustBuild is Build panicking on error; recipes are static so an error is
// a bug caught by the suite tests.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
