// Package metrics implements the paper's scalar evaluation metrics:
// BLEU over code tokens, the unbiased pass@k estimator, and the
// approximate subword tokenizer used for the length-distribution
// figures.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
)

// multiOps are the multi-character operator tokens, hoisted so the
// tokenizer's inner loop allocates nothing.
var multiOps = []string{"|->", "|=>", "<<<", ">>>", "===", "!==", "##", "&&", "||", "==", "!=", "<=", ">="}

// CodeTokens tokenizes SVA/SystemVerilog text for BLEU scoring:
// identifiers, numbers, and operator glyphs become tokens. Every token
// is a substring of src — the tokenizer allocates only the result
// slice.
func CodeTokens(src string) []string { return appendCodeTokens(nil, src) }

// appendCodeTokens appends src's CodeTokens to out.
func appendCodeTokens(out []string, src string) []string {
	i := 0
	isWord := func(c byte) bool {
		return c == '_' || c == '$' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '\''
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case isWord(c):
			j := i
			for j < len(src) && isWord(src[j]) {
				j++
			}
			out = append(out, src[i:j])
			i = j
		default:
			for _, op := range multiOps {
				if op[0] == c && strings.HasPrefix(src[i:], op) {
					out = append(out, op)
					i += len(op)
					goto next
				}
			}
			out = append(out, src[i:i+1])
			i++
		next:
		}
	}
	return out
}

// RefTokens is a pre-tokenized BLEU reference: scoring many
// candidates against one reference (the pass@k shape) tokenizes it
// once instead of per call.
type RefTokens struct{ toks []string }

// TokenizeRef prepares a reference for repeated BLEU scoring.
func TokenizeRef(reference string) RefTokens {
	return RefTokens{toks: CodeTokens(reference)}
}

// BLEU computes smoothed BLEU-4 between a candidate and a reference
// (both raw source strings, tokenized with CodeTokens). Smoothing adds
// one to every n-gram count (Lin & Och smoothing), keeping short
// assertions comparable.
func BLEU(candidate, reference string) float64 {
	return BLEURef(candidate, TokenizeRef(reference))
}

// bleuScratch is one BLEURef call's working set: the candidate's
// tokens, the intern table, both id sequences and both n-gram key
// lists. Pooled, so scoring allocates nothing in the steady state.
type bleuScratch struct {
	toks       []string
	ids        map[string]int32
	cand, ref  []int32
	ckey, rkey []uint64
}

var bleuPool = sync.Pool{New: func() any {
	return &bleuScratch{ids: make(map[string]int32)}
}}

// maxPooledTokens caps the inputs whose scratch returns to the pool: a
// cleared map costs its peak size on every later clear, so one huge
// input must not make every later call pay for it.
const maxPooledTokens = 1 << 12

// BLEURef is BLEU against a pre-tokenized reference.
func BLEURef(candidate string, reference RefTokens) float64 {
	sc := bleuPool.Get().(*bleuScratch)
	sc.toks = appendCodeTokens(sc.toks[:0], candidate)
	cand, ref := sc.toks, reference.toks
	if len(cand)+len(ref) <= maxPooledTokens {
		defer bleuPool.Put(sc)
	}
	if len(cand) == 0 || len(ref) == 0 {
		return 0
	}
	// Intern tokens to dense ids once so n-gram counting below compares
	// packed integers instead of strings.
	clear(sc.ids)
	sc.cand = internTokens(sc.cand[:0], cand, sc.ids)
	sc.ref = internTokens(sc.ref[:0], ref, sc.ids)
	// Past 2^16-1 distinct tokens 16-bit packing would collide.
	wide := len(sc.ids) >= 0xFFFF
	if !wide {
		sc.ckey = gramKeys(sc.ckey[:0], sc.cand)
		sc.rkey = gramKeys(sc.rkey[:0], sc.ref)
	}
	const maxN = 4
	logSum := 0.0
	for n := 1; n <= maxN; n++ {
		var match, total int
		if wide {
			match, total = ngramOverlapWide(sc.cand, sc.ref, n)
		} else {
			match, total = prefixOverlap(sc.ckey, sc.rkey, n), max(len(cand)-n+1, 0)
		}
		// +1 smoothing for n>1 per standard practice
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
	// brevity penalty
	if len(cand) < len(ref) {
		bleu *= math.Exp(1 - float64(len(ref))/float64(len(cand)))
	}
	return bleu
}

// internTokens appends toks' dense ids to out, extending the shared
// table, so n-grams compare by integer instead of string content.
func internTokens(out []int32, toks []string, ids map[string]int32) []int32 {
	for _, t := range toks {
		id, ok := ids[t]
		if !ok {
			id = int32(len(ids))
			ids[t] = id
		}
		out = append(out, id)
	}
	return out
}

// gramKeys appends one key per position of xs, sorted: the four
// tokens from that position packed 16 bits each, first token highest,
// ids shifted by one so that zero marks a token past the end. Sorting
// the keys sorts every position's n-gram, for each n at once, since an
// n-gram is the key's top n fields. Callers guarantee ids fit 16 bits.
func gramKeys(out []uint64, xs []int32) []uint64 {
	for i := range xs {
		var k uint64
		for j := i; j < i+4; j++ {
			k <<= 16
			if j < len(xs) {
				k |= uint64(xs[j] + 1)
			}
		}
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// prefixOverlap counts the candidate n-grams the reference can match:
// a merge of the two sorted key lists on their top n fields, skipping
// positions with fewer than n tokens left, adds min(candidate count,
// reference count) per n-gram, which is what greedily striking each
// candidate n-gram off a reference tally gives.
func prefixOverlap(cand, ref []uint64, n int) (match int) {
	shift := 16 * (4 - n)
	for i, j := 0, 0; i < len(cand) && j < len(ref); {
		c, r := cand[i]>>shift, ref[j]>>shift
		switch {
		case c&0xFFFF == 0 || c < r:
			i++
		case r&0xFFFF == 0 || c > r:
			j++
		default:
			match++
			i++
			j++
		}
	}
	return match
}

// ngramOverlapWide is the fallback for inputs with ≥ 2^16-1 distinct
// tokens, where 16-bit packing would collide.
func ngramOverlapWide(cand, ref []int32, n int) (match, total int) {
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

// PassAtK is the unbiased estimator from Chen et al. (2021):
// 1 - C(n-c, k)/C(n, k) for n samples with c correct. The estimator is
// defined only for 1 <= k <= n; PassAtK panics outside that range.
func PassAtK(n, c, k int) float64 {
	if k < 1 || k > n {
		panic(fmt.Sprintf("metrics: pass@%d over %d samples", k, n))
	}
	if n-c < k {
		return 1.0
	}
	// compute 1 - prod_{i=n-c+1..n} (1 - k/i)
	prod := 1.0
	for i := n - c + 1; i <= n; i++ {
		prod *= 1 - float64(k)/float64(i)
	}
	return 1 - prod
}

// Pearson computes the sample Pearson correlation coefficient.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// Histogram bins values into equal-width buckets over [min, max] and
// returns bucket labels with counts, for the figure reproductions.
type Histogram struct {
	Lo, Hi  float64
	Buckets []int
}

// NewHistogram bins the values into n buckets.
func NewHistogram(values []float64, n int) Histogram {
	if len(values) == 0 || n <= 0 {
		return Histogram{}
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	h := Histogram{Lo: lo, Hi: hi, Buckets: make([]int, n)}
	for _, v := range values {
		b := int((v - lo) / (hi - lo) * float64(n))
		if b >= n {
			b = n - 1
		}
		h.Buckets[b]++
	}
	return h
}

// Render draws the histogram as ASCII rows.
func (h Histogram) Render() string {
	var b strings.Builder
	maxC := 1
	for _, c := range h.Buckets {
		if c > maxC {
			maxC = c
		}
	}
	step := (h.Hi - h.Lo) / float64(len(h.Buckets))
	for i, c := range h.Buckets {
		lo := h.Lo + float64(i)*step
		hi := lo + step
		bar := strings.Repeat("#", c*40/maxC)
		row := fmt.Sprintf("%14s |%s %d", fmt.Sprintf("%d-%d", int(lo), int(hi)), bar, c)
		b.WriteString(strings.TrimRight(row, " ") + "\n")
	}
	return b.String()
}
