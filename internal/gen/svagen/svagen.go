// Package svagen generates the NL2SVA-Machine benchmark: random SVA
// assertions over the symbolic signal environment (random operator and
// signal sampling, paper §3.3 step 1), naturalized through package nl
// with a critic-validated retry loop (steps 2-4).
package svagen

import (
	"fmt"
	"math/rand"

	"fveval/internal/memo"
	"fveval/internal/nl"
	"fveval/internal/sva"
)

// Instance is one NL2SVA-Machine test case.
type Instance struct {
	ID        string
	NL        string         // naturalized description
	Reference *sva.Assertion // ground-truth assertion
	Retries   int            // naturalizer retries the critic forced
}

// oneBit and multiBit signals of the machine environment (widths in
// equiv.DefaultMachineSigs).
var (
	oneBit   = []string{"sig_D", "sig_E", "sig_F", "sig_I", "sig_J"}
	multiBit = []string{"sig_A", "sig_B", "sig_C", "sig_G", "sig_H"}
)

// Generate creates one random assertion instance; the description is
// regenerated until the critic accepts it (at most maxRetries, then
// the exact non-sloppy rendering is used).
func Generate(seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	body := randomProperty(rng)
	a := &sva.Assertion{ClockEdge: "posedge", ClockName: "clk", Body: body}

	const maxRetries = 4
	retries := 0
	var desc string
	for ; retries <= maxRetries; retries++ {
		sloppy := 0.25
		if retries == maxRetries {
			sloppy = 0 // final attempt is exact
		}
		n := &nl.Naturalizer{
			Rng:        rand.New(rand.NewSource(seed*31 + int64(retries))),
			Sloppiness: sloppy,
		}
		d, err := n.Describe(a)
		if err != nil {
			// Regenerate a simpler body; should not happen for the
			// generator's shapes.
			body = randomBoolProperty(rng)
			a.Body = body
			continue
		}
		if nl.Critic(d, a) == nil {
			desc = d
			break
		}
	}
	if desc == "" {
		n := &nl.Naturalizer{Rng: rand.New(rand.NewSource(seed * 37)), Sloppiness: 0}
		desc, _ = n.Describe(a)
	}
	return &Instance{
		ID:        fmt.Sprintf("nl2sva_machine_%d", seed),
		NL:        desc,
		Reference: a,
		Retries:   retries,
	}
}

// genCache memoizes Generate by seed: generation is deterministic and
// instances are treated read-only everywhere, so every engine sharing
// a process (benchmarks, the service, repeated runs) reuses one copy
// instead of re-running the generator and naturalizer critic loop.
var genCache = memo.New[int64, *Instance](1 << 16)

// ResetCache drops the memoized instances (benchmark isolation).
func ResetCache() { genCache.Clear() }

// Dataset returns the n-instance benchmark (the paper uses 300).
func Dataset(n int) []*Instance {
	out := make([]*Instance, 0, n)
	for i := 0; i < n; i++ {
		seed := int64(i + 1)
		inst, _ := genCache.Get(seed, func() *Instance { return Generate(seed) })
		out = append(out, inst)
	}
	return out
}

func randomProperty(rng *rand.Rand) sva.Property {
	switch rng.Intn(5) {
	case 0:
		return randomBoolProperty(rng)
	case 1: // A |-> ##N B
		d := 1 + rng.Intn(5)
		return &sva.PropImpl{
			S:       &sva.SeqExpr{E: randomCond(rng, 2)},
			Overlap: true,
			P: &sva.PropSeq{S: &sva.SeqDelay{
				D: sva.Delay{Lo: d, Hi: d},
				R: &sva.SeqExpr{E: randomCond(rng, 1)},
			}},
		}
	case 2: // A |=> B
		return &sva.PropImpl{
			S: &sva.SeqExpr{E: randomCond(rng, 2)},
			P: &sva.PropSeq{S: &sva.SeqExpr{E: randomCond(rng, 1)}},
		}
	case 3: // A |-> ##[a:b] B
		lo := 1 + rng.Intn(3)
		return &sva.PropImpl{
			S:       &sva.SeqExpr{E: randomCond(rng, 1)},
			Overlap: true,
			P: &sva.PropSeq{S: &sva.SeqDelay{
				D: sva.Delay{Lo: lo, Hi: lo + 1 + rng.Intn(3)},
				R: &sva.SeqExpr{E: randomCond(rng, 1)},
			}},
		}
	default: // A |-> s_eventually B
		return &sva.PropImpl{
			S:       &sva.SeqExpr{E: randomCond(rng, 1)},
			Overlap: true,
			P: &sva.PropEventually{
				P:      &sva.PropSeq{S: &sva.SeqExpr{E: randomCond(rng, 1)}},
				Strong: true,
			},
		}
	}
}

func randomBoolProperty(rng *rand.Rand) sva.Property {
	return &sva.PropSeq{S: &sva.SeqExpr{E: randomCond(rng, 2)}}
}

// randomCond builds a random boolean combination of depth up to d.
func randomCond(rng *rand.Rand, d int) sva.Expr {
	if d <= 0 || rng.Intn(3) == 0 {
		return randomAtom(rng)
	}
	op := "&&"
	if rng.Intn(2) == 0 {
		op = "||"
	}
	return &sva.Binary{Op: op, X: randomCond(rng, d-1), Y: randomCond(rng, d-1)}
}

func randomAtom(rng *rand.Rand) sva.Expr {
	if rng.Intn(2) == 0 {
		s := &sva.Ident{Name: oneBit[rng.Intn(len(oneBit))]}
		if rng.Intn(3) == 0 {
			return &sva.Unary{Op: "!", X: s}
		}
		return s
	}
	s := &sva.Ident{Name: multiBit[rng.Intn(len(multiBit))]}
	switch rng.Intn(8) {
	case 0:
		return &sva.Unary{Op: "^", X: s}
	case 1:
		return &sva.Unary{Op: "&", X: s}
	case 2:
		return &sva.Unary{Op: "|", X: s}
	case 3:
		return &sva.Call{Name: "$onehot", Args: []sva.Expr{s}}
	case 4:
		return &sva.Call{Name: "$onehot0", Args: []sva.Expr{s}}
	case 5:
		n := uint64(rng.Intn(15))
		return &sva.Binary{Op: "==", X: s, Y: num(n)}
	case 6:
		n := uint64(rng.Intn(15))
		return &sva.Binary{Op: pick(rng, "!=", "<", "<="), X: s, Y: num(n)}
	default:
		t := &sva.Ident{Name: multiBit[rng.Intn(len(multiBit))]}
		if t.Name == s.Name {
			return &sva.Unary{Op: "|", X: s}
		}
		return &sva.Binary{Op: pick(rng, "==", "!="), X: s, Y: t}
	}
}

func num(v uint64) *sva.Num {
	return &sva.Num{Text: fmt.Sprintf("%d", v), Value: v}
}

func pick(rng *rand.Rand, opts ...string) string {
	return opts[rng.Intn(len(opts))]
}
