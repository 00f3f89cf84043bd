package snapshot

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/browse"
	"repro/internal/hierarchy"
	"repro/internal/obsv"
	"repro/internal/textdb"
)

// buildFixture assembles a small real engine (with dates) to capture.
func buildFixture(t *testing.T) *browse.Interface {
	t.Helper()
	corpus := textdb.NewCorpus()
	day := func(d int) time.Time { return time.Date(2008, 1, d, 0, 0, 0, 0, time.UTC) }
	texts := []string{
		"chirac spoke in paris about the budget",
		"berlin hosted a summit on trade",
		"the election in france drew crowds",
		"a baseball game in boston went long",
		"soccer fans filled the stadium in london",
		"markets rallied while paris stayed quiet",
	}
	for i, s := range texts {
		corpus.Add(&textdb.Document{Title: "t", Source: "s", Date: day(i + 1), Text: s})
	}
	terms := []string{"europe", "france", "germany", "sports", "baseball", "soccer"}
	docTerms := [][]string{
		{"europe", "france"},
		{"europe", "germany"},
		{"europe", "france"},
		{"sports", "baseball"},
		{"sports", "soccer"},
		{"europe", "france"},
	}
	builder, _ := hierarchy.Lookup("subsumption")
	forest, err := builder.Build(context.Background(), terms, docTerms, hierarchy.BuildConfig{MinDF: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := browse.Build(corpus, forest, docTerms)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func captureFixture(t *testing.T) *Snapshot {
	t.Helper()
	iface := buildFixture(t)
	return Capture(iface, Meta{Epoch: 3, Profile: "TEST", Seed: 42, CreatedUnixNano: 1_200_000_000_000_000_000}, []FacetStat{
		{Term: "europe", DF: 4, DFC: 5, ShiftF: 1, ShiftR: -2, Score: 12.5},
		{Term: "sports", DF: 2, DFC: 2, ShiftF: 0, ShiftR: 0, Score: 3.25},
	})
}

func TestEncodeDecodeEncodeByteIdentical(t *testing.T) {
	snap := captureFixture(t)
	first, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Encode(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("encode→decode→encode is not byte-identical")
	}
	if !reflect.DeepEqual(snap.Meta, decoded.Meta) {
		t.Fatalf("meta changed: %+v vs %+v", snap.Meta, decoded.Meta)
	}
	if !reflect.DeepEqual(snap.Facets, decoded.Facets) {
		t.Fatalf("facet stats changed: %+v vs %+v", snap.Facets, decoded.Facets)
	}
	if !reflect.DeepEqual(snap.DocTerms, decoded.DocTerms) {
		t.Fatal("annotation rows changed")
	}
}

func TestRehydratedEngineAnswersIdentically(t *testing.T) {
	iface := buildFixture(t)
	snap := Capture(iface, Meta{Epoch: 7}, nil)
	data, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	re, err := decoded.BrowseInterface()
	if err != nil {
		t.Fatal(err)
	}
	if re.Epoch() != 7 {
		t.Fatalf("rehydrated epoch = %d, want 7", re.Epoch())
	}
	sels := []browse.Selection{
		{},
		{Terms: []string{"europe"}},
		{Terms: []string{"europe", "france"}},
		{Query: "paris"},
		{From: time.Date(2008, 1, 2, 0, 0, 0, 0, time.UTC), To: time.Date(2008, 1, 5, 0, 0, 0, 0, time.UTC)},
	}
	for i, sel := range sels {
		want := iface.Docs(sel)
		got := re.Docs(sel)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sel%d: rehydrated Docs = %v, original = %v", i, got, want)
		}
	}
	if got, want := re.Children("", browse.Selection{}), iface.Children("", browse.Selection{}); !reflect.DeepEqual(got, want) {
		t.Errorf("root menu differs: %v vs %v", got, want)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	data, err := Encode(captureFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte("XXXX"), data[4:]...)
	if _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, err := Decode([]byte("FS")); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short prefix: err = %v, want ErrTruncated", err)
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	data, err := Encode(captureFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[4], bad[5] = 0xFF, 0x7F
	var verr *VersionError
	if _, err := Decode(bad); !errors.As(err, &verr) {
		t.Fatalf("err = %v, want *VersionError", err)
	} else if verr.Got != 0x7FFF {
		t.Fatalf("VersionError.Got = %d, want %d", verr.Got, 0x7FFF)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := Encode(captureFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte: the checksum must catch it.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0x01
	if _, err := Decode(bad); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped payload byte: err = %v, want ErrChecksum", err)
	}
	// Trailing garbage changes the observed payload length.
	if _, err := Decode(append(append([]byte(nil), data...), 0xAB)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsEveryTruncation(t *testing.T) {
	data, err := Encode(captureFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(data))
		}
	}
}

func TestVerifyCatchesTamperedPostings(t *testing.T) {
	snap := captureFixture(t)
	if err := snap.Verify(); err != nil {
		t.Fatalf("pristine snapshot failed Verify: %v", err)
	}
	// Rebuild one posting list with an extra document: structurally valid,
	// checksummable, but semantically wrong.
	words := snap.Postings[0].Set.Words()
	words[0] ^= 1 << 0
	tampered, err := bitset.FromWords(words, snap.Postings[0].Set.Len())
	if err != nil {
		t.Fatal(err)
	}
	snap.Postings[0].Set = tampered
	if err := snap.Verify(); err == nil {
		t.Fatal("Verify accepted a tampered posting list")
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.fsnp")
	snap := captureFixture(t)
	reg := obsv.NewRegistry()
	if err := Save(path, snap, reg); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Meta, snap.Meta) {
		t.Fatalf("meta changed across save/load: %+v vs %+v", loaded.Meta, snap.Meta)
	}
	if reg.Histogram("snapshot.save_duration").Count() != 1 || reg.Histogram("snapshot.load_duration").Count() != 1 {
		t.Fatal("save/load timings not recorded")
	}
	if reg.Gauge("snapshot.size_bytes").Value() <= 0 {
		t.Fatal("snapshot.size_bytes not recorded")
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after save, want just the snapshot", len(entries))
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "absent.fsnp"), nil)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want wrapped os.ErrNotExist", err)
	}
}

func TestLoadBrowseWarmStart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.fsnp")
	iface := buildFixture(t)
	if err := Save(path, Capture(iface, Meta{Epoch: 1}, nil), nil); err != nil {
		t.Fatal(err)
	}
	reg := obsv.NewRegistry()
	re, snap, err := LoadBrowse(path, reg)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || re == nil {
		t.Fatal("LoadBrowse returned nil")
	}
	if got, want := re.MatchCount(browse.Selection{}), iface.MatchCount(browse.Selection{}); got != want {
		t.Fatalf("rehydrated MatchCount = %d, want %d", got, want)
	}
	if reg.Histogram("snapshot.rehydrate_duration").Count() != 1 {
		t.Fatal("rehydrate timing not recorded")
	}
	// LoadBrowse wires the query instruments: a repeated query must hit.
	re.Docs(browse.Selection{Terms: []string{"europe"}})
	re.Docs(browse.Selection{Terms: []string{"europe"}})
	if reg.Counter("browse.query_cache.hits").Value() != 1 {
		t.Fatal("rehydrated interface not wired into the metrics registry")
	}
}

func TestEncodeRejectsRaggedInput(t *testing.T) {
	snap := captureFixture(t)
	snap.DocTerms = snap.DocTerms[:len(snap.DocTerms)-1]
	if _, err := Encode(snap); err == nil {
		t.Fatal("Encode accepted mismatched doc/annotation counts")
	}
}

// TestPeekEpoch: the header-only epoch read agrees with the full decode,
// works through every truncation, and — by design — does NOT checksum,
// so it stays O(header) even on multi-gigabyte snapshots.
func TestPeekEpoch(t *testing.T) {
	snap := captureFixture(t)
	data, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := PeekEpoch(data)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != snap.Meta.Epoch {
		t.Fatalf("PeekEpoch = %d, want %d", epoch, snap.Meta.Epoch)
	}
	// Every strict prefix fails typed, never panics. (A prefix that ends
	// inside the payload still fails: PeekEpoch validates the declared
	// payload length against the input size.)
	for n := 0; n < len(data); n++ {
		if _, err := PeekEpoch(data[:n]); !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("prefix %d: err = %v, want ErrTruncated or ErrBadMagic", n, err)
		}
	}
	// Trailing garbage is corruption, same as Decode.
	if _, err := PeekEpoch(append(append([]byte(nil), data...), 0x00)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: err = %v, want ErrCorrupt", err)
	}
	// Bad magic and wrong version are rejected before any payload read.
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := PeekEpoch(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: err = %v", err)
	}
	// Deliberate non-goal: a flipped PAYLOAD byte beyond the epoch varint
	// is invisible to the peek (no checksum pass); full Decode catches it.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-1] ^= 0xFF
	if _, err := PeekEpoch(flipped); err != nil {
		t.Fatalf("peek should skip checksumming, got %v", err)
	}
	if _, err := Decode(flipped); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Decode of flipped payload: err = %v", err)
	}
}

// TestPeekEpochFile: same contract against an on-disk snapshot, reading
// only the probe window rather than the whole file.
func TestPeekEpochFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.fsnp")
	snap := captureFixture(t)
	if err := Save(path, snap, nil); err != nil {
		t.Fatal(err)
	}
	epoch, err := PeekEpochFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != snap.Meta.Epoch {
		t.Fatalf("PeekEpochFile = %d, want %d", epoch, snap.Meta.Epoch)
	}
	if _, err := PeekEpochFile(filepath.Join(dir, "absent.fsnp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v", err)
	}
	// A truncated file fails typed.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(dir, "short.fsnp")
	if err := os.WriteFile(short, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := PeekEpochFile(short); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated file: err = %v", err)
	}
}
