package textdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/obsv"
)

// Store is a disk-backed document store: documents are written in
// immutable, append-only segment files registered in a manifest. This is
// the persistence layer a deployed archive uses (the paper's NYT archive
// holds decades of stories); segments make ingestion crash-safe — a
// segment becomes visible only after it is fully written, synced, and the
// manifest update is atomically renamed into place.
//
// Segment file format (all integers unsigned varints):
//
//	magic "FDBSEG1\n"
//	repeated records:
//	  recordLen  — length of the payload that follows
//	  crc32      — IEEE CRC of the payload (4 bytes, big endian)
//	  payload:
//	    titleLen title sourceLen source unixDate textLen text
//
// The manifest ("MANIFEST") lists one "name docCount" line per segment in
// ingestion order, preceded by the header line "FDBMANIFEST1".
type Store struct {
	dir      string
	segments []segmentInfo
	metrics  *obsv.Registry
}

// SetMetrics starts recording segment flush and compaction timing into
// reg as textdb.segment_append / textdb.segment_compact histograms plus
// a textdb.appended_docs counter. Call before serving traffic.
func (s *Store) SetMetrics(reg *obsv.Registry) { s.metrics = reg }

type segmentInfo struct {
	name string
	docs int
}

const (
	segMagic       = "FDBSEG1\n"
	manifestHeader = "FDBMANIFEST1"
	manifestName   = "MANIFEST"
)

// OpenStore opens (or initializes) a store in dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("textdb: open store: %w", err)
	}
	s := &Store{dir: dir}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("textdb: read manifest: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || lines[0] != manifestHeader {
		return nil, fmt.Errorf("textdb: bad manifest header")
	}
	for _, line := range lines[1:] {
		if line == "" {
			continue
		}
		var name string
		var docs int
		if _, err := fmt.Sscanf(line, "%s %d", &name, &docs); err != nil {
			return nil, fmt.Errorf("textdb: bad manifest line %q", line)
		}
		s.segments = append(s.segments, segmentInfo{name, docs})
	}
	return s, nil
}

// Segments returns the number of registered segments.
func (s *Store) Segments() int { return len(s.segments) }

// Docs returns the total number of persisted documents.
func (s *Store) Docs() int {
	n := 0
	for _, seg := range s.segments {
		n += seg.docs
	}
	return n
}

// Append durably writes the documents as one new segment and registers
// it. Documents become visible to LoadAll only after Append returns nil;
// after an error the store holds none of them. A Store is not safe for
// concurrent use.
func (s *Store) Append(docs []*Document) error {
	if len(docs) == 0 {
		return fmt.Errorf("textdb: empty segment append")
	}
	if s.metrics != nil {
		defer func(start time.Time) {
			s.metrics.Histogram("textdb.segment_append").Observe(time.Since(start))
			s.metrics.Counter("textdb.appended_docs").Add(int64(len(docs)))
		}(time.Now())
	}
	name := fmt.Sprintf("segment-%06d.seg", len(s.segments))
	tmp := filepath.Join(s.dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("textdb: create segment: %w", err)
	}
	w := bufio.NewWriter(f)
	if _, err := w.WriteString(segMagic); err != nil {
		f.Close()
		return err
	}
	for _, d := range docs {
		if err := writeRecord(w, d); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		return fmt.Errorf("textdb: publish segment: %w", err)
	}
	s.segments = append(s.segments, segmentInfo{name, len(docs)})
	if err := s.writeManifest(); err != nil {
		// The manifest does not list the segment: forget it, so a retry
		// of the same documents writes them once.
		s.segments = s.segments[:len(s.segments)-1]
		os.Remove(filepath.Join(s.dir, name))
		return err
	}
	return nil
}

func (s *Store) writeManifest() error {
	var sb strings.Builder
	sb.WriteString(manifestHeader + "\n")
	for _, seg := range s.segments {
		fmt.Fprintf(&sb, "%s %d\n", seg.name, seg.docs)
	}
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, []byte(sb.String()), 0o644); err != nil {
		return fmt.Errorf("textdb: write manifest: %w", err)
	}
	return os.Rename(tmp, filepath.Join(s.dir, manifestName))
}

func writeRecord(w *bufio.Writer, d *Document) error {
	payload := encodeDoc(d)
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	if _, err := w.Write(lenBuf[:n]); err != nil {
		return err
	}
	var crcBuf [4]byte
	binary.BigEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(crcBuf[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func encodeDoc(d *Document) []byte {
	var buf []byte
	appendString := func(s string) {
		var lenBuf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(lenBuf[:], uint64(len(s)))
		buf = append(buf, lenBuf[:n]...)
		buf = append(buf, s...)
	}
	appendString(d.Title)
	appendString(d.Source)
	var dateBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(dateBuf[:], uint64(d.Date.Unix()))
	buf = append(buf, dateBuf[:n]...)
	appendString(d.Text)
	return buf
}

func decodeDoc(payload []byte) (*Document, error) {
	pos := 0
	readString := func() (string, error) {
		l, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return "", fmt.Errorf("bad varint")
		}
		pos += n
		if pos+int(l) > len(payload) {
			return "", fmt.Errorf("string overruns payload")
		}
		out := string(payload[pos : pos+int(l)])
		pos += int(l)
		return out, nil
	}
	d := &Document{}
	var err error
	if d.Title, err = readString(); err != nil {
		return nil, err
	}
	if d.Source, err = readString(); err != nil {
		return nil, err
	}
	unix, n := binary.Uvarint(payload[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("bad date varint")
	}
	pos += n
	d.Date = time.Unix(int64(unix), 0).UTC()
	if d.Text, err = readString(); err != nil {
		return nil, err
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("%d trailing bytes", len(payload)-pos)
	}
	return d, nil
}

// LoadAll reads every registered segment, in order, into a fresh corpus.
// Unregistered segment files (from a crashed Append) are ignored; corrupt
// records fail loudly with the segment name and record index.
func (s *Store) LoadAll() (*Corpus, error) {
	c := NewCorpus()
	for _, seg := range s.segments {
		if err := s.loadSegment(seg, c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (s *Store) loadSegment(seg segmentInfo, c *Corpus) error {
	f, err := os.Open(filepath.Join(s.dir, seg.name))
	if err != nil {
		return fmt.Errorf("textdb: open %s: %w", seg.name, err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != segMagic {
		return fmt.Errorf("textdb: %s: bad magic", seg.name)
	}
	for rec := 0; rec < seg.docs; rec++ {
		l, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("textdb: %s record %d: %w", seg.name, rec, err)
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
			return fmt.Errorf("textdb: %s record %d: %w", seg.name, rec, err)
		}
		payload := make([]byte, l)
		if _, err := io.ReadFull(r, payload); err != nil {
			return fmt.Errorf("textdb: %s record %d: %w", seg.name, rec, err)
		}
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(crcBuf[:]) {
			return fmt.Errorf("textdb: %s record %d: checksum mismatch", seg.name, rec)
		}
		doc, err := decodeDoc(payload)
		if err != nil {
			return fmt.Errorf("textdb: %s record %d: %w", seg.name, rec, err)
		}
		c.Add(doc)
	}
	return nil
}

// SegmentFiles returns the registered segment file names in order; used
// by tooling and tests.
func (s *Store) SegmentFiles() []string {
	out := make([]string, len(s.segments))
	for i, seg := range s.segments {
		out[i] = seg.name
	}
	return out
}

// Compact merges every registered segment into one and removes the old
// files, reclaiming the per-segment overhead of a long ingestion history.
// The store stays consistent at every step: the merged segment is
// published under a fresh name and the manifest swap is atomic; old
// segment files are deleted only afterwards (a crash in between leaves
// harmless orphans).
func (s *Store) Compact() error {
	if len(s.segments) <= 1 {
		return nil
	}
	if s.metrics != nil {
		defer func(start time.Time) {
			s.metrics.Histogram("textdb.segment_compact").Observe(time.Since(start))
		}(time.Now())
	}
	corpus, err := s.LoadAll()
	if err != nil {
		return fmt.Errorf("textdb: compact: %w", err)
	}
	old := s.segments
	// Publish the merged segment under the next free index.
	s.segments = append([]segmentInfo{}, old...)
	if err := s.Append(corpus.Docs()); err != nil {
		s.segments = old
		return fmt.Errorf("textdb: compact: %w", err)
	}
	merged := s.segments[len(s.segments)-1]
	s.segments = []segmentInfo{merged}
	if err := s.writeManifest(); err != nil {
		return fmt.Errorf("textdb: compact: %w", err)
	}
	for _, seg := range old {
		if err := os.Remove(filepath.Join(s.dir, seg.name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("textdb: compact cleanup: %w", err)
		}
	}
	return nil
}

// OrphanSegments lists .seg files on disk that the manifest does not
// register (left by a crash between segment write and manifest update);
// they are safe to delete.
func (s *Store) OrphanSegments() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	registered := map[string]bool{}
	for _, seg := range s.segments {
		registered[seg.name] = true
	}
	var orphans []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".seg") && !registered[name] {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	return orphans, nil
}
