package textdb

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func testDocs(n int, prefix string) []*Document {
	out := make([]*Document, n)
	for i := range out {
		out[i] = &Document{
			Title:  prefix + " title",
			Source: "The Test Wire",
			Date:   time.Date(2005, 11, 7, 0, 0, 0, 0, time.UTC).AddDate(0, 0, i),
			Text:   prefix + " body text with several words in it",
		}
	}
	return out
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testDocs(3, "first")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testDocs(2, "second")); err != nil {
		t.Fatal(err)
	}
	if s.Segments() != 2 || s.Docs() != 5 {
		t.Fatalf("segments=%d docs=%d", s.Segments(), s.Docs())
	}
	// Reopen from disk.
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Segments() != 2 || s2.Docs() != 5 {
		t.Fatalf("reopened: segments=%d docs=%d", s2.Segments(), s2.Docs())
	}
	c, err := s2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 5 {
		t.Fatalf("loaded %d docs", c.Len())
	}
	d := c.Doc(0)
	if d.Title != "first title" || d.Source != "The Test Wire" || d.Text == "" {
		t.Fatalf("doc 0 = %+v", d)
	}
	if !d.Date.Equal(time.Date(2005, 11, 7, 0, 0, 0, 0, time.UTC)) {
		t.Fatalf("date = %v", d.Date)
	}
	if c.Doc(3).Title != "second title" {
		t.Fatal("segment order lost")
	}
}

func TestStoreEmptyAppendRejected(t *testing.T) {
	s, _ := OpenStore(t.TempDir())
	if err := s.Append(nil); err == nil {
		t.Fatal("empty append accepted")
	}
}

func TestStoreCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	if err := s.Append(testDocs(2, "x")); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the segment.
	path := filepath.Join(dir, s.SegmentFiles()[0])
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, _ := OpenStore(dir)
	if _, err := s2.LoadAll(); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestStoreOrphanSegments(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	if err := s.Append(testDocs(1, "real")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: a segment file exists but is not in the manifest.
	if err := os.WriteFile(filepath.Join(dir, "segment-000099.seg"), []byte(segMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, _ := OpenStore(dir)
	orphans, err := s2.OrphanSegments()
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 1 || orphans[0] != "segment-000099.seg" {
		t.Fatalf("orphans = %v", orphans)
	}
	// The orphan must not be loaded.
	c, err := s2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("loaded %d docs, want 1", c.Len())
	}
}

func TestStoreBadManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir); err == nil {
		t.Fatal("bad manifest accepted")
	}
}

// TestStoreManifestReferencesMissingSegment is the inverse crash shape of
// TestStoreOrphanSegments: the manifest registers a segment whose file is
// gone (disk corruption or manual deletion — never a crashed Append,
// which orders file-then-manifest). The store must fail loudly at load,
// not silently serve a truncated collection.
func TestStoreManifestReferencesMissingSegment(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	if err := s.Append(testDocs(2, "a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testDocs(3, "b")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, s.SegmentFiles()[0])); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir) // opening only reads the manifest
	if err != nil {
		t.Fatal(err)
	}
	if s2.Docs() != 5 {
		t.Fatalf("manifest docs = %d, want 5", s2.Docs())
	}
	if _, err := s2.LoadAll(); err == nil {
		t.Fatal("missing segment file not detected")
	}
}

// TestStoreManifestOverstatesDocCount: a manifest that promises more
// records than the segment holds (torn segment write that somehow passed
// the rename) must fail the load rather than under-read silently.
func TestStoreManifestOverstatesDocCount(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	if err := s.Append(testDocs(2, "x")); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, manifestName)
	data, _ := os.ReadFile(manifest)
	bad := strings.Replace(string(data), " 2", " 3", 1)
	if err := os.WriteFile(manifest, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.LoadAll(); err == nil {
		t.Fatal("overstated doc count not detected")
	}
}

// TestStoreCompactCrashLeavesRecoverableState simulates a crash between
// Compact's manifest swap and its old-file cleanup: the merged segment is
// live, the stale files are orphans, and a restart loads the full
// collection then reclaims the orphans.
func TestStoreCompactCrashLeavesRecoverableState(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	for i := 0; i < 3; i++ {
		if err := s.Append(testDocs(2, "seg")); err != nil {
			t.Fatal(err)
		}
	}
	old := s.SegmentFiles()
	// Preserve copies of the pre-compact segment files, then compact and
	// restore them — the on-disk state of a crash after the manifest swap
	// but before cleanup.
	saved := map[string][]byte{}
	for _, name := range old {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		saved[name] = data
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for name, data := range saved {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 6 {
		t.Fatalf("recovered %d docs, want 6", c.Len())
	}
	orphans, err := s2.OrphanSegments()
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != len(old) {
		t.Fatalf("orphans = %v, want the %d stale segments", orphans, len(old))
	}
	for _, name := range orphans {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	orphans, _ = s2.OrphanSegments()
	if len(orphans) != 0 {
		t.Fatalf("orphans remain after reclaim: %v", orphans)
	}
	if c2, err := s2.LoadAll(); err != nil || c2.Len() != 6 {
		t.Fatalf("post-reclaim load: %d docs, err %v", c2.Len(), err)
	}
}

// TestStoreAppendAfterCrashOverwritesOrphan: a crashed Append leaves an
// unregistered segment file under the name the next Append will choose;
// the rewrite must supersede it cleanly.
func TestStoreAppendAfterCrashOverwritesOrphan(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	// Crash artifact: an orphan under the first segment name.
	if err := os.WriteFile(filepath.Join(dir, "segment-000000.seg"), []byte("torn garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testDocs(2, "fresh")); err != nil {
		t.Fatal(err)
	}
	c, err := s.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 || c.Doc(0).Title != "fresh title" {
		t.Fatalf("orphan not superseded: %d docs", c.Len())
	}
}

// TestStoreAppendAfterFailedManifestWrite: an Append whose manifest
// write fails leaves the store as it was, so retrying the same documents
// (as live ingestion does with an epoch's intake) stores them once.
func TestStoreAppendAfterFailedManifestWrite(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	if err := s.Append(testDocs(2, "a")); err != nil {
		t.Fatal(err)
	}
	// A directory where the manifest's temporary file goes makes the
	// manifest write fail after the segment file is written.
	blocker := filepath.Join(dir, manifestName+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testDocs(3, "b")); err == nil {
		t.Fatal("Append succeeded with the manifest write blocked")
	}
	if s.Segments() != 1 || s.Docs() != 2 {
		t.Fatalf("after the failed Append: %d segments, %d docs, want 1 and 2", s.Segments(), s.Docs())
	}
	if orphans, _ := s.OrphanSegments(); len(orphans) != 0 {
		t.Fatalf("failed Append left segment files %v", orphans)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testDocs(3, "b")); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := reopened.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var titles []string
	for _, d := range c.Docs() {
		titles = append(titles, d.Title)
	}
	if got, want := strings.Join(titles, ","), "a title,a title,b title,b title,b title"; got != want {
		t.Fatalf("reopened store holds %s, want %s", got, want)
	}
}

func TestQuickDocEncodeDecode(t *testing.T) {
	f := func(title, source, text string, unix uint32) bool {
		in := &Document{
			Title:  title,
			Source: source,
			Date:   time.Unix(int64(unix), 0).UTC(),
			Text:   text,
		}
		out, err := decodeDoc(encodeDoc(in))
		if err != nil {
			return false
		}
		return out.Title == in.Title && out.Source == in.Source &&
			out.Text == in.Text && out.Date.Equal(in.Date)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeDocRejectsTruncation(t *testing.T) {
	payload := encodeDoc(&Document{Title: "t", Source: "s", Date: time.Unix(100, 0), Text: "body"})
	for cut := 1; cut < len(payload); cut++ {
		if _, err := decodeDoc(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := decodeDoc(append(payload, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestStoreCompact(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	for i := 0; i < 4; i++ {
		if err := s.Append(testDocs(2, "batch")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Segments() != 1 || s.Docs() != 8 {
		t.Fatalf("after compact: segments=%d docs=%d", s.Segments(), s.Docs())
	}
	// Reopen and verify content survived.
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 8 {
		t.Fatalf("loaded %d docs", c.Len())
	}
	// Old segment files are gone.
	orphans, _ := s2.OrphanSegments()
	if len(orphans) != 0 {
		t.Fatalf("orphans after compact: %v", orphans)
	}
	// Compacting a single segment is a no-op.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if s2.Segments() != 1 {
		t.Fatal("no-op compact changed segments")
	}
}
