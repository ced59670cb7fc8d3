package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"fliptracker/internal/ir"
)

func randomRec(rng *rand.Rand, step uint64) Rec {
	r := Rec{
		SID:      int32(rng.Intn(5000)),
		Op:       ir.Opcode(rng.Intn(30)),
		Typ:      ir.Type(rng.Intn(2)),
		RegionID: -1,
		Step:     step,
		NSrc:     uint8(rng.Intn(3)),
		Taken:    rng.Intn(2) == 1,
	}
	if rng.Intn(4) > 0 {
		r.Dst = MemLoc(int64(rng.Intn(100000)))
		r.DstVal = ir.F64Word(rng.NormFloat64())
	}
	for s := 0; s < int(r.NSrc); s++ {
		r.Src[s] = RegLoc(uint64(rng.Intn(50)), ir.Reg(rng.Intn(200)))
		r.SrcVal[s] = ir.I64Word(rng.Int63())
	}
	if rng.Intn(10) == 0 {
		r.RegionID = int32(rng.Intn(8))
	}
	return r
}

func randomTrace(seed int64, n int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	t := &Trace{
		ProgName:  "random",
		FaultNote: "flip bit 3 of dst at step 42",
		Status:    RunStatus(rng.Intn(3)),
		Steps:     uint64(n * 2),
	}
	step := uint64(0)
	for i := 0; i < n; i++ {
		step += uint64(rng.Intn(3) + 1)
		t.Recs.Append(randomRec(rng, step))
	}
	for i := 0; i < 4; i++ {
		t.Output = append(t.Output, OutVal{Val: ir.F64Word(rng.NormFloat64()), Typ: ir.F64, Sci6: i%2 == 0})
	}
	return t
}

func TestBinaryRoundTrip(t *testing.T) {
	orig := randomTrace(1, 500)
	var buf bytes.Buffer
	if err := orig.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ProgName != orig.ProgName || got.FaultNote != orig.FaultNote ||
		got.Status != orig.Status || got.Steps != orig.Steps {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Recs.Len() != orig.Recs.Len() {
		t.Fatalf("record count %d vs %d", got.Recs.Len(), orig.Recs.Len())
	}
	for i := 0; i < got.Recs.Len(); i++ {
		if got.Recs.At(i) != orig.Recs.At(i) {
			t.Fatalf("record %d differs:\n got %+v\nwant %+v", i, got.Recs.At(i), orig.Recs.At(i))
		}
	}
	for i := range got.Output {
		if got.Output[i] != orig.Output[i] {
			t.Fatalf("output %d differs", i)
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		orig := randomTrace(seed, 80)
		var buf bytes.Buffer
		if err := orig.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return got.Recs.Equal(&orig.Recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	orig := randomTrace(7, 200)
	path := filepath.Join(t.TempDir(), "t.ftrc")
	if err := orig.WriteBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Recs.Len() != orig.Recs.Len() {
		t.Fatalf("record count mismatch")
	}
	if _, err := ReadBinaryFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a trace at all")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	// A well-formed stream under the retired FTRC1 magic: empty names,
	// status 0, steps 0, no outputs, no records.
	if _, err := ReadBinary(strings.NewReader("FTRC1\n\x00\x00\x00\x00\x00\x00")); err == nil ||
		!strings.Contains(err.Error(), "bad magic") {
		t.Errorf("FTRC1 stream: err = %v, want bad magic", err)
	}
	// Truncated valid prefix.
	orig := randomTrace(3, 50)
	var buf bytes.Buffer
	if err := orig.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("truncated input accepted")
	}
}

// TestBinaryRejectsEveryPrefix: the decoder reads exactly the bytes the
// encoder wrote, so every proper prefix of a valid stream must fail with an
// error — never decode to a trace, never panic.
func TestBinaryRejectsEveryPrefix(t *testing.T) {
	for _, orig := range []*Trace{randomTrace(3, 50), {ProgName: "empty"}} {
		var buf bytes.Buffer
		if err := orig.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		for k := 0; k < len(raw); k++ {
			if tr, err := ReadBinary(bytes.NewReader(raw[:k])); err == nil {
				t.Fatalf("%s: prefix of %d/%d bytes decoded to a trace of %d records",
					orig.ProgName, k, len(raw), tr.Recs.Len())
			}
		}
	}
}

// failAfter accepts n bytes and then fails every write.
type failAfter struct{ n int }

var errWriteFailed = errors.New("write failed")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errWriteFailed
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteBinaryReportsWriteErrors: a writer that fails anywhere inside the
// stream must surface as an error from WriteBinary.
func TestWriteBinaryReportsWriteErrors(t *testing.T) {
	orig := randomTrace(5, 40)
	var buf bytes.Buffer
	if err := orig.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < buf.Len(); k++ {
		if err := orig.WriteBinary(&failAfter{n: k}); !errors.Is(err, errWriteFailed) {
			t.Fatalf("writer failing after %d/%d bytes: err = %v", k, buf.Len(), err)
		}
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40)} {
		if got := Unzigzag(Zigzag(v)); got != v {
			t.Errorf("zigzag(%d) round trip = %d", v, got)
		}
	}
}
