package mpi

import (
	"testing"

	"fliptracker/internal/interp"
	"fliptracker/internal/trace"
)

func TestWriteAndReadRankTraces(t *testing.T) {
	p := buildRingProg(t)
	res, err := Run(p, Config{Ranks: 3, Mode: interp.TraceFull, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths, err := res.WriteRankTraces(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("paths = %d", len(paths))
	}
	traces := readRankTraces(t, paths)
	for i, tr := range traces {
		if tr.Steps != res.Ranks[i].Trace.Steps {
			t.Errorf("rank %d steps mismatch: %d vs %d", i, tr.Steps, res.Ranks[i].Trace.Steps)
		}
		if tr.Recs.Len() != res.Ranks[i].Trace.Recs.Len() {
			t.Errorf("rank %d records mismatch", i)
		}
	}
}

// readRankTraces reads back the per-rank files WriteRankTraces wrote.
func readRankTraces(t *testing.T, paths []string) []*trace.Trace {
	t.Helper()
	out := make([]*trace.Trace, len(paths))
	for i, p := range paths {
		tr, err := trace.ReadBinaryFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = tr
	}
	return out
}

// TestRankTracesRoundTripCrashedWorld persists a faulty world in which the
// injected rank crashes (and the world teardown fails the others), then
// round-trips every rank's trace: statuses, truncated record buffers and
// outputs must survive the file format intact.
func TestRankTracesRoundTripCrashedWorld(t *testing.T) {
	p := buildCampaignProg(t)
	clean, err := Run(p, Config{Ranks: 3, Mode: interp.TraceFull, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Searching from the middle of rank 1's run, find a high-bit flip that
	// crashes the world (bit 62 on an address or counter does reliably).
	var faulty *Result
	for step := clean.Ranks[1].Trace.Steps / 2; step < clean.Ranks[1].Trace.Steps; step++ {
		f := interp.Fault{Step: step, Bit: 62, Kind: interp.FaultDst}
		r, err := Run(p, Config{Ranks: 3, Mode: interp.TraceFull, Seed: 1,
			FaultRank: 1, Fault: &f, Replay: clean.Recording,
			StepLimit: 64 * clean.Ranks[1].Trace.Steps})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status() == trace.RunCrashed {
			faulty = r
			break
		}
	}
	if faulty == nil {
		t.Fatal("no crashing fault found in the back half of the run")
	}
	paths, err := faulty.WriteRankTraces(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	traces := readRankTraces(t, paths)
	crashed := 0
	for i, tr := range traces {
		want := faulty.Ranks[i].Trace
		if tr.Status != want.Status || tr.Steps != want.Steps {
			t.Errorf("rank %d: status/steps %v/%d, want %v/%d", i, tr.Status, tr.Steps, want.Status, want.Steps)
		}
		if tr.Recs.Len() != want.Recs.Len() {
			t.Errorf("rank %d: %d records, want %d", i, tr.Recs.Len(), want.Recs.Len())
		}
		for j := 0; j < tr.Recs.Len(); j++ {
			if tr.Recs.At(j) != want.Recs.At(j) {
				t.Errorf("rank %d: record %d mismatch", i, j)
				break
			}
		}
		if len(tr.Output) != len(want.Output) {
			t.Errorf("rank %d: %d outputs, want %d", i, len(tr.Output), len(want.Output))
		}
		if tr.Status == trace.RunCrashed {
			crashed++
		}
	}
	if crashed == 0 {
		t.Error("round-tripped world has no crashed rank")
	}
}
