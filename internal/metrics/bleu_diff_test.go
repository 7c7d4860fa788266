package metrics_test

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"fveval/internal/core"
	"fveval/internal/llm"
	"fveval/internal/metrics"
	"fveval/internal/sva"
)

// mapBLEU is the map-based scorer BLEURef replaced, kept as the
// oracle: intern tokens, then per n-gram order strike each candidate
// n-gram off a reference tally held in a map.
func mapBLEU(candidate, reference string) float64 {
	cand, ref := metrics.CodeTokens(candidate), metrics.CodeTokens(reference)
	if len(cand) == 0 || len(ref) == 0 {
		return 0
	}
	ids := make(map[string]int32, len(cand)+len(ref))
	candIDs := mapIntern(cand, ids)
	refIDs := mapIntern(ref, ids)
	overlap := mapOverlap
	if len(ids) >= 0xFFFF {
		overlap = mapOverlapWide
	}
	const maxN = 4
	logSum := 0.0
	for n := 1; n <= maxN; n++ {
		match, total := overlap(candIDs, refIDs, n)
		var p float64
		if n == 1 {
			if total == 0 {
				return 0
			}
			p = float64(match) / float64(total)
			if p == 0 {
				p = 1.0 / float64(2*total)
			}
		} else {
			p = (float64(match) + 1) / (float64(total) + 1)
		}
		logSum += math.Log(p)
	}
	bleu := math.Exp(logSum / maxN)
	if len(cand) < len(ref) {
		bleu *= math.Exp(1 - float64(len(ref))/float64(len(cand)))
	}
	return bleu
}

func mapIntern(toks []string, ids map[string]int32) []int32 {
	out := make([]int32, len(toks))
	for i, t := range toks {
		id, ok := ids[t]
		if !ok {
			id = int32(len(ids))
			ids[t] = id
		}
		out[i] = id
	}
	return out
}

func mapNgram(xs []int32, i, n int) uint64 {
	var k uint64
	for j := 0; j < n; j++ {
		k = k<<16 | uint64(xs[i+j]+1)
	}
	return k
}

func mapOverlap(cand, ref []int32, n int) (match, total int) {
	if len(cand) < n {
		return 0, 0
	}
	refCounts := make(map[uint64]int, len(ref))
	for i := 0; i+n <= len(ref); i++ {
		refCounts[mapNgram(ref, i, n)]++
	}
	for i := 0; i+n <= len(cand); i++ {
		total++
		key := mapNgram(cand, i, n)
		if refCounts[key] > 0 {
			refCounts[key]--
			match++
		}
	}
	return match, total
}

func mapOverlapWide(cand, ref []int32, n int) (match, total int) {
	if len(cand) < n {
		return 0, 0
	}
	wide := func(xs []int32, i int) (k [4]int32) {
		k = [4]int32{-1, -1, -1, -1}
		copy(k[:], xs[i:i+n])
		return k
	}
	refCounts := make(map[[4]int32]int, len(ref))
	for i := 0; i+n <= len(ref); i++ {
		refCounts[wide(ref, i)]++
	}
	for i := 0; i+n <= len(cand); i++ {
		total++
		key := wide(cand, i)
		if refCounts[key] > 0 {
			refCounts[key]--
			match++
		}
	}
	return match, total
}

// sameBLEU fails t unless both entry points score candidate against
// reference bit for bit as mapBLEU does.
func sameBLEU(t *testing.T, what, candidate, reference string, ref metrics.RefTokens) {
	t.Helper()
	want := math.Float64bits(mapBLEU(candidate, reference))
	if got := math.Float64bits(metrics.BLEURef(candidate, ref)); got != want {
		t.Fatalf("%s: BLEURef = %v, map scorer = %v\ncandidate %.200q\nreference %.200q",
			what, math.Float64frombits(got), math.Float64frombits(want), candidate, reference)
	}
	if got := math.Float64bits(metrics.BLEU(candidate, reference)); got != want {
		t.Fatalf("%s: BLEU = %v, map scorer = %v", what, math.Float64frombits(got), math.Float64frombits(want))
	}
}

// TestBLEUMatchesMapScorer scores every NL2SVA-Human and
// NL2SVA-Machine reference against every proxy model's sampled
// responses (and itself), as the judge does, and demands the map
// scorer's exact bits.
func TestBLEUMatchesMapScorer(t *testing.T) {
	human, err := core.LoadHuman()
	if err != nil {
		t.Fatal(err)
	}
	models := llm.Models()
	pairs := 0
	score := func(id string, prompt *llm.Prompt, ref *sva.Assertion) {
		reference := ref.String()
		rt := metrics.TokenizeRef(reference)
		sameBLEU(t, id+" self", reference, reference, rt)
		for _, m := range models {
			for s := 0; s < 5; s++ {
				sameBLEU(t, id+" "+m.Name(), llm.ExtractCode(m.Generate(prompt, s)), reference, rt)
				pairs++
			}
		}
	}
	for _, in := range human {
		score(in.ID, llm.BuildHumanPrompt(in.ID, in.Testbench.Source, in.NL, in.Reference), in.Reference)
	}
	for _, in := range core.LoadMachine(300) {
		for _, shots := range []int{0, 3} {
			score(in.ID, llm.BuildMachinePrompt(in.ID, in.NL, shots, in.Reference), in.Reference)
		}
	}
	if want := (len(human) + 2*300) * len(models) * 5; pairs != want {
		t.Fatalf("scored %d pairs, want %d", pairs, want)
	}
}

// TestBLEUWideVocabulary reaches the fallback for inputs with more
// distinct tokens than 16-bit packing can tell apart, then checks that
// an ordinary pair still scores exactly afterwards. Packed 16 bits per
// token, the reference bigram (s0, s65536) would collide with the
// candidate's (s0, s0) and score a match that is not there.
func TestBLEUWideVocabulary(t *testing.T) {
	var body strings.Builder
	for i := 0; i < 70000; i++ {
		body.WriteString(" s" + strconv.Itoa(i))
	}
	reference := body.String() + " s0 s65536"
	candidate := "s0" + body.String()
	if b := mapBLEU(candidate, reference); b <= 0 || b >= 1 {
		t.Fatalf("wide pair scored %v, want a score inside (0, 1)", b)
	}
	sameBLEU(t, "wide", candidate, reference, metrics.TokenizeRef(reference))

	small := "assert property (@(posedge clk) a |-> ##2 b);"
	sameBLEU(t, "after wide", "assert property (@(posedge clk) a |=> b);", small, metrics.TokenizeRef(small))
}

// FuzzBLEU checks BLEU against the map scorer on arbitrary text.
func FuzzBLEU(f *testing.F) {
	f.Add("assert property (@(posedge clk) a |-> ##2 b);", "assert property (@(posedge clk) a |-> ##2 b);")
	f.Add("a a a a b", "a b a b a")
	f.Add("x + y", "assert property (@(posedge clk) disable iff (tb_reset) wr_push |-> strong(##[0:$] rd_pop));")
	f.Add("", "a")
	f.Add("a", "")
	f.Fuzz(func(t *testing.T, candidate, reference string) {
		sameBLEU(t, "fuzz", candidate, reference, metrics.TokenizeRef(reference))
	})
}
