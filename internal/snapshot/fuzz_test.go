package snapshot

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/browse"
	"repro/internal/hierarchy"
	"repro/internal/textdb"
)

// tinyInterface builds the smallest meaningful engine for fuzz seeds.
func tinyInterface() (*browse.Interface, error) {
	corpus := textdb.NewCorpus()
	corpus.Add(&textdb.Document{Title: "t", Source: "s", Date: time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC), Text: "alpha beta"})
	corpus.Add(&textdb.Document{Title: "t", Source: "s", Date: time.Date(2008, 1, 2, 0, 0, 0, 0, time.UTC), Text: "beta gamma"})
	docTerms := [][]string{{"a"}, {"a", "b"}}
	builder, _ := hierarchy.Lookup("subsumption")
	forest, err := builder.Build(context.Background(), []string{"a", "b"}, docTerms, hierarchy.BuildConfig{MinDF: 1})
	if err != nil {
		return nil, err
	}
	return browse.Build(corpus, forest, docTerms)
}

// FuzzSnapshotDecode throws arbitrary bytes at the decoder. Properties:
// Decode never panics, and any input it accepts re-encodes canonically —
// Encode(Decode(x)) must itself decode to the same snapshot. CI runs
// this as a 10s smoke on every push; longer local runs explore deeper.
func FuzzSnapshotDecode(f *testing.F) {
	// Seed with a pristine encoding plus targeted mutations of it, so the
	// fuzzer starts at the format's interesting surface instead of random
	// magic-check rejections.
	iface, err := tinyInterface()
	if err != nil {
		f.Fatal(err)
	}
	valid, err := Encode(Capture(iface, Meta{Epoch: 2, Profile: "SEED", Seed: 9}, []FacetStat{{Term: "a", DF: 1, Score: 0.5}}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("FSNP"))
	f.Add(valid[:len(valid)/2])
	mutated := append([]byte(nil), valid...)
	if len(mutated) > 24 {
		mutated[24] ^= 0xFF
	}
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		peeked, peekErr := PeekEpoch(data) // must never panic either
		s, err := Decode(data)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		// Anything the full decoder accepts, the header-only epoch peek
		// must also accept — and agree on the epoch.
		if peekErr != nil {
			t.Fatalf("Decode accepted input but PeekEpoch rejected it: %v", peekErr)
		}
		if peeked != s.Meta.Epoch {
			t.Fatalf("PeekEpoch = %d, Decode says epoch %d", peeked, s.Meta.Epoch)
		}
		re, err := Encode(s)
		if err != nil {
			t.Fatalf("accepted input failed to re-encode: %v", err)
		}
		s2, err := Decode(re)
		if err != nil {
			t.Fatalf("canonical re-encoding failed to decode: %v", err)
		}
		re2, err := Encode(s2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}
