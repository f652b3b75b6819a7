package bloom

import (
	"fmt"

	"beyondbloom/internal/core"
)

// Scalable is a scalable Bloom filter (Almeida et al., §2.2): a chain of
// Bloom filters with geometrically growing capacities and geometrically
// tightening false-positive rates, so the compound FPR converges to a
// fixed budget no matter how far the set grows. It is the classic
// "chain of filters" answer to expansion; its cost, which experiments E3
// and E23 measure, is that queries must probe every filter in the chain.
type Scalable struct {
	stages     []*Filter
	stageCap   []int
	growth     int     // capacity growth factor per stage
	tightening float64 // per-stage FPR multiplier (r < 1)
	stageEps   float64 // FPR of the next stage to allocate
	initialCap int
	epsilon    float64 // compound FPR budget the chain converges to
	n          int
}

// scalableTightening is the stage-FPR ratio r: stage i gets FPR
// epsilon*(1-r)*r^i, summing to epsilon.
const scalableTightening = 0.5

// NewScalable returns a scalable Bloom filter starting at initialCap keys
// with a compound false-positive budget epsilon. Stage i gets capacity
// initialCap*2^i and FPR epsilon*(1-r)*r^i with tightening ratio r=0.5.
func NewScalable(initialCap int, epsilon float64) (*Scalable, error) {
	if initialCap < 1 {
		return nil, fmt.Errorf("bloom: scalable initial capacity %d must be positive", initialCap)
	}
	if !(epsilon > 0 && epsilon < 1) {
		return nil, fmt.Errorf("bloom: scalable FPR budget %v outside (0, 1)", epsilon)
	}
	return &Scalable{
		growth:     2,
		tightening: scalableTightening,
		stageEps:   epsilon * (1 - scalableTightening),
		initialCap: initialCap,
		epsilon:    epsilon,
	}, nil
}

// ScalableFromSpec builds an empty scalable filter from its construction
// parameters: Spec.N is the initial capacity and Spec.BitsPerKey carries
// the compound ε budget (see core.Spec).
func ScalableFromSpec(s core.Spec) (*Scalable, error) {
	if s.Type != core.TypeScalableBloom {
		return nil, fmt.Errorf("bloom: spec type %d is not TypeScalableBloom", s.Type)
	}
	return NewScalable(s.N, s.BitsPerKey)
}

// Spec returns the chain's construction parameters.
func (s *Scalable) Spec() core.Spec {
	return core.Spec{Type: core.TypeScalableBloom, N: s.initialCap, BitsPerKey: s.epsilon}
}

func (s *Scalable) addStage() { s.appendStage(New(s.nextCap(), s.stageEps)) }

// nextCap returns the capacity of the next stage to open.
func (s *Scalable) nextCap() int {
	cap := s.initialCap
	for range s.stages {
		cap *= s.growth
	}
	return cap
}

// appendStage links st into the chain as the next stage.
func (s *Scalable) appendStage(st *Filter) {
	s.stageCap = append(s.stageCap, s.nextCap())
	s.stages = append(s.stages, st)
	s.stageEps *= s.tightening
}

// Insert adds key, opening a new stage when the current one reaches its
// design capacity. It never fails: growth is a new chain link.
func (s *Scalable) Insert(key uint64) error {
	if len(s.stages) == 0 || s.stages[len(s.stages)-1].Len() >= s.stageCap[len(s.stages)-1] {
		s.addStage()
	}
	s.n++
	return s.stages[len(s.stages)-1].Insert(key)
}

// Contains probes every stage in the chain (the linear query cost the
// tutorial attributes to chained expansion).
func (s *Scalable) Contains(key uint64) bool {
	for _, st := range s.stages {
		if st.Contains(key) {
			return true
		}
	}
	return false
}

// ContainsBatch probes every key, writing Contains(keys[i]) into out[i]
// (see core.BatchFilter). Per chunk it batches the whole chain stage by
// stage, compacting to the not-yet-found survivors between stages, so
// the common case — most keys answered by the newest stages — costs one
// batched pass instead of len(chain) scalar probes. It allocates
// nothing.
func (s *Scalable) ContainsBatch(keys []uint64, out []bool) {
	_ = out[:len(keys)]
	var sub [core.BatchChunk]uint64
	var res [core.BatchChunk]bool
	var live [core.BatchChunk]uint16
	for base := 0; base < len(keys); base += core.BatchChunk {
		chunk := keys[base:]
		if len(chunk) > core.BatchChunk {
			chunk = chunk[:core.BatchChunk]
		}
		co := out[base : base+len(chunk)]
		nl := len(chunk)
		for i := range chunk {
			live[i] = uint16(i)
			co[i] = false
		}
		// Newest stage first: it holds the most recent (and in many
		// workloads the most probed) keys, shrinking the survivor set
		// fastest.
		for si := len(s.stages) - 1; si >= 0 && nl > 0; si-- {
			for j := 0; j < nl; j++ {
				sub[j] = chunk[live[j]]
			}
			s.stages[si].ContainsBatch(sub[:nl], res[:nl])
			k := 0
			for j := 0; j < nl; j++ {
				if res[j] {
					co[live[j]] = true
				} else {
					live[k] = live[j]
					k++
				}
			}
			nl = k
		}
	}
}

// Stages returns the current chain length (query cost in probes).
func (s *Scalable) Stages() int { return len(s.stages) }

// Expansions returns the number of capacity doublings: chain links
// opened beyond the first.
func (s *Scalable) Expansions() int {
	if len(s.stages) == 0 {
		return 0
	}
	return len(s.stages) - 1
}

// FPRBudget returns the compound false-positive budget ε the tightening
// series converges to.
func (s *Scalable) FPRBudget() float64 { return s.epsilon }

// Len returns the number of inserted keys.
func (s *Scalable) Len() int { return s.n }

// SizeBits returns the total footprint of all stages.
func (s *Scalable) SizeBits() int {
	total := 0
	for _, st := range s.stages {
		total += st.SizeBits()
	}
	return total
}

var (
	_ core.GrowableFilter = (*Scalable)(nil)
	_ core.BatchFilter    = (*Scalable)(nil)
)
