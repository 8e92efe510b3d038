package workload

import (
	"repro/internal/trace"
)

// Component pairs a reference source with an interleaving weight.
type Component struct {
	Src trace.Source
	// Weight is the relative share of chunks this component receives
	// (values below 1 are treated as 1).
	Weight int
}

// Mix interleaves components in chunks: in each round, component i
// contributes Weight_i*chunk consecutive references. Chunked interleaving
// (rather than per-reference) models program phases alternating between
// loops, which is also what forces LT-cords to follow several signature
// sequences in parallel (paper Section 3.2). Exhausted components are
// skipped; the stream ends when all are exhausted.
func Mix(chunk int, comps ...Component) trace.Source {
	if chunk < 1 {
		chunk = 1
	}
	type state struct {
		src   *trace.Puller
		quota int
		left  int
		done  bool
	}
	sts := make([]*state, 0, len(comps))
	for _, c := range comps {
		w := c.Weight
		if w < 1 {
			w = 1
		}
		sts = append(sts, &state{src: trace.NewPuller(c.Src), quota: w * chunk, left: w * chunk})
	}
	if len(sts) == 0 {
		return trace.FillFunc(func([]trace.Ref) int { return 0 })
	}
	cur := 0
	advance := func() {
		cur = (cur + 1) % len(sts)
		sts[cur].left = sts[cur].quota
	}
	return trace.FillFunc(func(buf []trace.Ref) int {
		for i := range buf {
			deadSkips := 0
			for {
				if deadSkips >= len(sts) {
					return i
				}
				st := sts[cur]
				if st.done {
					deadSkips++
					advance()
					continue
				}
				if st.left <= 0 {
					advance()
					continue
				}
				r, ok := st.src.Next()
				if !ok {
					st.done = true
					deadSkips++
					advance()
					continue
				}
				st.left--
				buf[i] = r
				break
			}
		}
		return len(buf)
	})
}
