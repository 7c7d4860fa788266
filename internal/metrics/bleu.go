// Package metrics implements the paper's scalar evaluation metrics:
// BLEU over code tokens, the unbiased pass@k estimator, and the
// approximate subword tokenizer used for the length-distribution
// figures.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// multiOps are the multi-character operator tokens, hoisted so the
// tokenizer's inner loop allocates nothing.
var multiOps = []string{"|->", "|=>", "<<<", ">>>", "===", "!==", "##", "&&", "||", "==", "!=", "<=", ">="}

// CodeTokens tokenizes SVA/SystemVerilog text for BLEU scoring:
// identifiers, numbers, and operator glyphs become tokens. Every token
// is a substring of src — the tokenizer allocates only the result
// slice.
func CodeTokens(src string) []string {
	var out []string
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
				if strings.HasPrefix(src[i:], op) {
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

// BLEURef is BLEU against a pre-tokenized reference.
func BLEURef(candidate string, reference RefTokens) float64 {
	cand := CodeTokens(candidate)
	ref := reference.toks
	if len(cand) == 0 || len(ref) == 0 {
		return 0
	}
	// Intern tokens to dense ids once so n-gram counting below hashes
	// small fixed-size arrays instead of joining strings.
	ids := make(map[string]int32, len(cand)+len(ref))
	candIDs := internTokens(cand, ids)
	refIDs := internTokens(ref, ids)
	overlap := ngramOverlap
	if len(ids) >= 0xFFFF {
		overlap = ngramOverlapWide
	}
	const maxN = 4
	logSum := 0.0
	for n := 1; n <= maxN; n++ {
		match, total := overlap(candIDs, refIDs, n)
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

// internTokens maps tokens to dense ids (extending the shared table)
// so n-grams compare by integer instead of string content.
func internTokens(toks []string, ids map[string]int32) []int32 {
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

// ngram packs tokens i..i+n-1 into one uint64 key, 16 bits per token
// with ids shifted by one so zero-padding cannot collide with id 0.
// Callers guarantee ids fit 16 bits (ngramOverlap checks).
func ngram(xs []int32, i, n int) uint64 {
	var k uint64
	for j := 0; j < n; j++ {
		k = k<<16 | uint64(xs[i+j]+1)
	}
	return k
}

func ngramOverlap(cand, ref []int32, n int) (match, total int) {
	if len(cand) < n {
		return 0, 0
	}
	refCounts := make(map[uint64]int, len(ref))
	for i := 0; i+n <= len(ref); i++ {
		refCounts[ngram(ref, i, n)]++
	}
	for i := 0; i+n <= len(cand); i++ {
		total++
		key := ngram(cand, i, n)
		if refCounts[key] > 0 {
			refCounts[key]--
			match++
		}
	}
	return match, total
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
		b.WriteString(strings.TrimRight(
			padLeft(formatRange(lo, hi), 14)+" |"+bar+" "+itoa(c), " ") + "\n")
	}
	return b.String()
}

func formatRange(lo, hi float64) string {
	return itoa(int(lo)) + "-" + itoa(int(hi))
}

func padLeft(s string, w int) string {
	for len(s) < w {
		s = " " + s
	}
	return s
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
