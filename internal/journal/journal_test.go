package journal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fliptracker/internal/interp"
)

func testHeader() Header {
	return Header{Engine: EngineInject, App: "cg", Seed: 20181111, Tests: 64, Fingerprint: 0xdeadbeefcafe}
}

// testRecords builds n records with every field class exercised: dst, mem
// and reg faults, all four outcome codes, and (for even indices) MPI
// propagation payloads.
func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		r := Record{
			Index:   uint64(i),
			Outcome: uint8(i % 4),
			Fault: interp.Fault{
				Step: uint64(i * 1000),
				Bit:  uint8(i % 64),
				Kind: interp.FaultKind(i % 3),
				Addr: int64(i*7 - 12), // negative early: exercises zigzag
				Reg:  0,
			},
		}
		if i%2 == 0 {
			r.PropClass = 1
			r.PropRanks = []int{0, i + 1}
		}
		recs[i] = r
	}
	return recs
}

func writeJournal(t *testing.T, path string, h Header, recs []Record) {
	t.Helper()
	j, err := Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	want := testRecords(9)
	writeJournal(t, path, testHeader(), want)

	j, got, err := Open(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	// The reopened journal keeps appending from where it left off.
	extra := Record{Index: 9, Outcome: 2, Fault: interp.Fault{Step: 42, Bit: 63, Kind: interp.FaultMem, Addr: -1}}
	if err := j.Append(extra); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, got, err = Open(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || !reflect.DeepEqual(got[9], extra) {
		t.Fatalf("after resume-append: %d records, last %+v", len(got), got[len(got)-1])
	}
}

func TestOpenOrCreate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	// Fresh path: creates.
	j, recs, err := OpenOrCreate(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal yielded %d records", len(recs))
	}
	if err := j.Append(testRecords(1)[0]); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Existing path: resumes.
	j, recs, err = OpenOrCreate(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("resumed journal yielded %d records, want 1", len(recs))
	}
	j.Close()

	// An existing empty file is treated as fresh, not as a corrupt header:
	// a kill can land between creat() and the first header write.
	empty := filepath.Join(t.TempDir(), "empty.journal")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err = OpenOrCreate(empty, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("empty file yielded %d records", len(recs))
	}
	j.Close()
}

// TestHeaderMismatch: every identity field of the header is load-bearing —
// a journal written under a different campaign configuration refuses to
// resume with ErrMismatch, never silently diverges.
func TestHeaderMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	writeJournal(t, path, testHeader(), testRecords(3))

	alter := map[string]func(*Header){
		"engine":      func(h *Header) { h.Engine = EngineMPI },
		"app":         func(h *Header) { h.App = "mg" },
		"seed":        func(h *Header) { h.Seed++ },
		"tests":       func(h *Header) { h.Tests++ },
		"fingerprint": func(h *Header) { h.Fingerprint ^= 1 },
	}
	for name, mutate := range alter {
		want := testHeader()
		mutate(&want)
		_, _, err := Open(path, want)
		if !errors.Is(err, ErrMismatch) {
			t.Errorf("%s mismatch: err = %v, want ErrMismatch", name, err)
		}
	}
	// The matching header still opens.
	j, _, err := Open(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
}

// TestCorruptHeader: damage anywhere before the first record — magic or
// header frame — is ErrCorruptHeader; nothing is salvageable.
func TestCorruptHeader(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		off  int64 // byte to flip
	}{
		{"magic", 2},
		{"header-frame", int64(len(magic)) + 6},
	} {
		path := filepath.Join(dir, tc.name+".journal")
		writeJournal(t, path, testHeader(), testRecords(2))
		flipByte(t, path, tc.off)
		if _, _, err := Open(path, testHeader()); !errors.Is(err, ErrCorruptHeader) {
			t.Errorf("%s: err = %v, want ErrCorruptHeader", tc.name, err)
		}
	}
	// A non-journal file is also ErrCorruptHeader.
	path := filepath.Join(dir, "notajournal")
	if err := os.WriteFile(path, []byte("something else entirely\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, testHeader()); !errors.Is(err, ErrCorruptHeader) {
		t.Errorf("non-journal: err = %v, want ErrCorruptHeader", err)
	}
}

// TestTruncatedTail: a kill mid-write leaves a torn final frame; Open
// truncates it away and the journal keeps working from the last committed
// record.
func TestTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	recs := testRecords(5)
	writeJournal(t, path, testHeader(), recs)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int64{1, 3, 7} {
		if err := os.Truncate(path, st.Size()-cut); err != nil {
			t.Fatal(err)
		}
		j, got, err := Open(path, testHeader())
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !reflect.DeepEqual(got, recs[:4]) {
			t.Fatalf("cut %d: got %d records, want the 4 committed ones", cut, len(got))
		}
		j.Close()
		// Restore the full file for the next, deeper cut.
		writeJournal(t, path, testHeader(), recs)
	}

	// After truncation, appending resumes at the dropped index and the
	// re-written record commits durably.
	if err := os.Truncate(path, st.Size()-2); err != nil {
		t.Fatal(err)
	}
	j, got, err := Open(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("got %d records, want 4", len(got))
	}
	if err := j.Append(recs[4]); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, got, err = Open(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("after repair: got %+v, want %+v", got, recs)
	}
}

// TestBitFlippedRecord: bit rot inside a committed record is caught by its
// CRC, and everything from that record on is dropped — later intact
// records would leave an index gap, so the journal degrades to its longest
// valid prefix.
func TestBitFlippedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	recs := testRecords(5)
	writeJournal(t, path, testHeader(), recs)

	// Locate record 2's frame by walking the length prefixes.
	offs := frameOffsets(t, path)
	if len(offs) != 6 { // header + 5 records
		t.Fatalf("found %d frames, want 6", len(offs))
	}
	flipByte(t, path, offs[3]+5) // a payload byte of record index 2

	j, got, err := Open(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !reflect.DeepEqual(got, recs[:2]) {
		t.Fatalf("got %d records, want the 2 before the flipped one", len(got))
	}
	// Appending resumes at the first dropped index.
	if err := j.Append(recs[2]); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
}

// TestInconsistentRecord: a frame that passes its CRC but contradicts the
// journal's own invariants (out-of-order index, index beyond the planned
// test count) is ErrCorrupt — no torn write produces it, so it is an error,
// not a truncation.
func TestInconsistentRecord(t *testing.T) {
	dir := t.TempDir()

	// Out-of-order index: hand-frame a record claiming index 5 after 1.
	path := filepath.Join(dir, "gap.journal")
	writeJournal(t, path, testHeader(), testRecords(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var p payload
	p.uvarint(5) // index: should be 1
	for i := 0; i < 8; i++ {
		p.uvarint(0)
	}
	if err := writeFrame(f, p.buf); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := Open(path, testHeader()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("index gap: err = %v, want ErrCorrupt", err)
	}

	// Index beyond the planned campaign size.
	h := testHeader()
	h.Tests = 2
	path = filepath.Join(dir, "overrun.journal")
	writeJournal(t, path, h, testRecords(3))
	if _, _, err := Open(path, h); !errors.Is(err, ErrCorrupt) {
		t.Errorf("overrun: err = %v, want ErrCorrupt", err)
	}

	// Append itself refuses an out-of-order index.
	path = filepath.Join(dir, "append.journal")
	j, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(Record{Index: 3}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Append out of order: err = %v, want ErrCorrupt", err)
	}
}

// flipByte XORs one byte of the file at off.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off >= int64(len(b)) {
		t.Fatalf("flip offset %d beyond file size %d", off, len(b))
	}
	b[off] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// frameOffsets returns the byte offset of every frame in the file
// (header first), trusting the length prefixes.
func frameOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	off := int64(len(magic))
	for off < int64(len(b)) {
		offs = append(offs, off)
		n := int64(uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24)
		off += 4 + n + 4
	}
	return offs
}

// TestSurface covers the small API surface the bigger scenarios skip:
// accessors, engine names, open/create failure modes, the version gate and
// the frame length cap.
func TestSurface(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.journal")
	j, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	for e, want := range map[Engine]string{EngineInject: "inject", EngineMPI: "mpi", Engine(9): "engine(9)"} {
		if e.String() != want {
			t.Errorf("Engine(%d).String() = %q, want %q", uint8(e), e.String(), want)
		}
	}

	// Filesystem failures surface as plain errors, not corruption classes.
	if _, err := Create(filepath.Join(dir, "no/such/dir/x.journal"), testHeader()); err == nil {
		t.Error("Create in a missing directory succeeded")
	}
	if _, _, err := Open(filepath.Join(dir, "absent.journal"), testHeader()); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Open of an absent path: err = %v, want os.ErrNotExist", err)
	}

	// A header frame claiming a future format version is refused as a
	// corrupt header (this build cannot interpret it), even with a valid CRC.
	vpath := filepath.Join(dir, "version.journal")
	f, err := os.Create(vpath)
	if err != nil {
		t.Fatal(err)
	}
	var p payload
	p.uvarint(version + 1)
	if _, err := f.WriteString(magic); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(f, p.buf); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := Open(vpath, testHeader()); !errors.Is(err, ErrCorruptHeader) {
		t.Errorf("future version: err = %v, want ErrCorruptHeader", err)
	}

	// A length prefix beyond maxFrame is treated as a torn tail: the scan
	// truncates it rather than allocating a giant buffer.
	lpath := filepath.Join(dir, "len.journal")
	recs := testRecords(2)
	writeJournal(t, lpath, testHeader(), recs)
	g, err := os.OpenFile(lpath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	g.Close()
	j2, got, err := Open(lpath, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("oversized tail frame: got %d records, want %d", len(got), len(recs))
	}
}
