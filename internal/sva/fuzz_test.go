package sva_test

import (
	"testing"

	"fveval/internal/dataset/human"
	"fveval/internal/gen/svagen"
	"fveval/internal/sva"
)

// FuzzParseAssertion feeds arbitrary text to the parser, the way model
// responses reach it. The property is that parsing never panics, and
// neither do the syntax check and the printer on whatever parses. The
// corpus starts from the in-repo dataset references: every NL2SVA-Human
// reference and a sample of NL2SVA-Machine ones.
func FuzzParseAssertion(f *testing.F) {
	for _, tb := range human.Testbenches() {
		for _, p := range tb.Pairs {
			f.Add(p.Reference)
		}
	}
	for seed := int64(1); seed <= 32; seed++ {
		f.Add(svagen.Generate(seed).Reference.String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		a, err := sva.ParseAssertion(src)
		if err != nil {
			return
		}
		_ = sva.Validate(a)
		_ = a.String()
	})
}
