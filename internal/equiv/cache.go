package equiv

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"fveval/internal/memo"
	"fveval/internal/sva"
)

// CacheStats reports memo effectiveness for one run.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// HitRate is Hits / (Hits + Misses), 0 when the cache saw no traffic.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

func (s CacheStats) String() string {
	return fmt.Sprintf("equiv cache: %d hits / %d misses (%.1f%% hit rate)",
		s.Hits, s.Misses, 100*s.HitRate())
}

type cacheEntry struct {
	res Result
	err error
}

// Cache is a concurrency-safe, content-addressed memo for Check.
// Keys are derived from the normalized assertion pair (labels carry no
// semantics and are stripped), the signal environment, and the checker
// options, so two lexically different but canonically identical queries
// share one SAT solve. Pass@k evaluation re-checks many duplicate
// candidate/reference pairs across samples and models; sharing one
// Cache across a whole run collapses them.
//
// A nil *Cache is valid and degenerates to an uncached Check call, so
// callers can thread an optional cache without branching.
type Cache struct {
	verdicts *memo.Memo[[sha256.Size]byte, cacheEntry]
	hits     atomic.Int64
	misses   atomic.Int64

	// Key-derivation memos: canonical renderings by assertion identity
	// and signal-environment digests by Sigs identity. References and
	// signal environments repeat across thousands of queries, and
	// re-rendering them dominated key derivation.
	norm *memo.Memo[*sva.Assertion, string]
	sigs *memo.Memo[*Sigs, []byte]
}

// NewCache returns an empty cache ready for concurrent use. Each of
// its memos clears itself at 1<<16 entries, so a long-lived service
// re-parsing duplicate assertions cannot grow them (and pin the keyed
// ASTs) forever; a clear only costs re-solving or re-rendering.
func NewCache() *Cache {
	return &Cache{
		verdicts: memo.New[[sha256.Size]byte, cacheEntry](1 << 16),
		norm:     memo.New[*sva.Assertion, string](1 << 16),
		sigs:     memo.New[*Sigs, []byte](1 << 16),
	}
}

// Check is Check with memoization. Cached Results are shared — callers
// must treat the witness traces as read-only (every caller in this
// repo does).
func (c *Cache) Check(a, b *sva.Assertion, sigs *Sigs, opt Options) (Result, error) {
	if c == nil {
		return Check(a, b, sigs, opt)
	}
	e, hit := c.verdicts.Get(c.key(a, b, sigs, opt), func() cacheEntry {
		res, err := Check(a, b, sigs, opt)
		return cacheEntry{res, err}
	})
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	opt.Span.SetBool("cache_hit", hit)
	return e.res, e.err
}

// Stats snapshots the hit/miss counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// Len reports the number of distinct queries memoized.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return c.verdicts.Len()
}

// key hashes the semantic content of a query: canonical assertion
// renderings with labels stripped, the sorted signal environment, and
// every option that can change the verdict (the simulation-prefilter
// knobs are deliberately excluded — they never do).
func (c *Cache) key(a, b *sva.Assertion, sigs *Sigs, opt Options) [sha256.Size]byte {
	h := sha256.New()
	io.WriteString(h, c.normalized(a))
	h.Write([]byte{0})
	io.WriteString(h, c.normalized(b))
	h.Write([]byte{0})
	d, _ := c.sigs.Get(sigs, func() []byte {
		var buf bytes.Buffer
		writeSigs(&buf, sigs)
		return buf.Bytes()
	})
	h.Write(d)
	fmt.Fprintf(h, "|%d|%d", opt.MaxBound, opt.Budget)
	var key [sha256.Size]byte
	copy(key[:], h.Sum(nil))
	return key
}

// normalized is normalizeAssertion memoized by assertion identity.
func (c *Cache) normalized(a *sva.Assertion) string {
	s, _ := c.norm.Get(a, func() string { return normalizeAssertion(a) })
	return s
}

// normalizeAssertion renders an assertion canonically, dropping the
// label (it never affects the verdict).
func normalizeAssertion(a *sva.Assertion) string {
	if a.Label == "" {
		return a.String()
	}
	c := a.Clone()
	c.Label = ""
	return c.String()
}

func writeSigs(h io.Writer, sigs *Sigs) {
	if sigs == nil {
		return
	}
	names := make([]string, 0, len(sigs.Widths))
	for n := range sigs.Widths {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "%s=%d;", n, sigs.Widths[n])
	}
	if len(sigs.Consts) > 0 {
		cnames := make([]string, 0, len(sigs.Consts))
		for n := range sigs.Consts {
			cnames = append(cnames, n)
		}
		sort.Strings(cnames)
		for _, n := range cnames {
			v := sigs.Consts[n]
			fmt.Fprintf(h, "%s=%d/%d;", n, v.Value, v.Width)
		}
	}
}
