package apps

import (
	"bytes"
	"hash/fnv"
	"testing"

	"fliptracker/internal/interp"
	"fliptracker/internal/trace"
)

// TestAllAppsTraceRoundTrip drives the columnar store and the FTRC2 codec
// over every paper workload's real clean trace: the SoA columns must
// reassemble into the exact AoS rows they were appended from, and FTRC2 must
// round-trip the trace bit-exactly.
func TestAllAppsTraceRoundTrip(t *testing.T) {
	for _, name := range TableIVNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a, ok := Get(name)
			if !ok {
				t.Fatal("registry lookup failed")
			}
			tr, err := a.CleanTrace(interp.TraceFull)
			if err != nil {
				t.Fatal(err)
			}
			n := tr.Recs.Len()
			if n == 0 {
				t.Fatal("empty full trace")
			}

			// SoA -> AoS -> SoA: materialize every row and rebuild the
			// column store from the rows.
			rows := make([]trace.Rec, n)
			for i := 0; i < n; i++ {
				rows[i] = tr.Recs.At(i)
			}
			rebuilt := trace.MakeRecs(rows...)
			if !rebuilt.Equal(&tr.Recs) {
				t.Fatal("AoS rows do not rebuild the original columns")
			}

			// Codec round trip over the real workload trace.
			var buf bytes.Buffer
			if err := tr.WriteBinary(&buf); err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := trace.ReadBinary(&buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !got.Recs.Equal(&tr.Recs) {
				t.Fatal("round trip altered records")
			}
		})
	}
}

// ftrc1Aggregate is the total size of the ten shipped workloads' full clean
// traces under the retired FTRC1 encoder, measured when it was removed.
const ftrc1Aggregate = 73246405

// TestFTRC2CompressionTarget pins the headline number of the columnar
// codec: across the shipped workloads, FTRC2 traces are at least 3x smaller
// than the same traces under FTRC1.
func TestFTRC2CompressionTarget(t *testing.T) {
	var totalV2 int
	for _, name := range TableIVNames() {
		a, _ := Get(name)
		tr, err := a.CleanTrace(interp.TraceFull)
		if err != nil {
			t.Fatal(err)
		}
		var b2 bytes.Buffer
		if err := tr.WriteBinary(&b2); err != nil {
			t.Fatal(err)
		}
		totalV2 += b2.Len()
		t.Logf("%-8s %9d recs  FTRC2 %9d B  (%.2f B/rec)",
			name, tr.Recs.Len(), b2.Len(), float64(b2.Len())/float64(tr.Recs.Len()))
	}
	ratio := float64(ftrc1Aggregate) / float64(totalV2)
	t.Logf("aggregate: FTRC1 %d B, FTRC2 %d B, ratio %.2fx", ftrc1Aggregate, totalV2, ratio)
	if ratio < 3.0 {
		t.Errorf("FTRC2 compression ratio %.2fx < 3x target over shipped workloads", ratio)
	}
}

// ftrc2BytesGolden is the FNV-64a of WriteBinary over every registered app's
// full clean trace, in Names() order, captured before the FTRC1 reader and
// the codec's per-call error branches were removed. Any change to the bytes
// FTRC2 writes moves it; there is deliberately no flag to re-capture it.
const ftrc2BytesGolden = 0xc62c175e5833f8c0

// TestFTRC2BytesGolden pins the exact FTRC2 encoding of real workload
// traces, so a codec refactor cannot change the file format unnoticed.
func TestFTRC2BytesGolden(t *testing.T) {
	h := fnv.New64a()
	for _, name := range Names() {
		a, _ := Get(name)
		tr, err := a.CleanTrace(interp.TraceFull)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tr.WriteBinary(h); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if got := h.Sum64(); got != ftrc2BytesGolden {
		t.Errorf("FTRC2 bytes digest %#x, want %#x", got, uint64(ftrc2BytesGolden))
	}
}
