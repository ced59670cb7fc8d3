package apps

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"fliptracker/internal/interp"
	"fliptracker/internal/mpi"
	"fliptracker/internal/trace"
)

// sidLogGolden pins, per registered program, the FNV-64a digest of the clean
// run's step-indexed static-id log (Machine.SIDLog) and its step count. The
// "/mpi1" entries pin rank 1 of a 2-rank world of the SPMD variant, replayed
// under the world's own wildcard recording, together with the rank's
// collective cut log (the Steps() value its MPI hosts observe).
var sidLogGolden = map[string]struct {
	steps  uint64
	digest uint64
}{
	"bt":             {160009, 0xf481a611fa6741ea},
	"bt/mpi1":        {160049, 0x7c830f7289db9356},
	"cg":             {374782, 0x88c764d32c961c2d},
	"cg/mpi1":        {374144, 0x74a1c9b862dc7e99},
	"cg-all":         {401882, 0xf7b56ba1a215bca5},
	"cg-all/mpi1":    {401244, 0x6025eef98093440e},
	"cg-dclovw":      {379322, 0x553948b0ddcd161d},
	"cg-dclovw/mpi1": {378684, 0x493b6faedc833bfd},
	"cg-trunc":       {397342, 0x4680fe1ccac1817d},
	"cg-trunc/mpi1":  {396704, 0x757988fc17bb602e},
	"dc":             {182895, 0xc2e961aa4670cd97},
	"dc/mpi1":        {182915, 0xc3869f6dd52e5330},
	"ft":             {45666, 0xcdde42c9534ed526},
	"ft/mpi1":        {45696, 0x33936146899d0d89},
	"is":             {190763, 0xf60c9fc819e98bbe},
	"is/mpi1":        {190813, 0xb130fb9ab0f65047},
	"kmeans":         {80673, 0x22887f337b512627},
	"kmeans/mpi1":    {80421, 0x7f7cde4a49aaeb9d},
	"lu":             {312473, 0xa55bf592576e6172},
	"lu/mpi1":        {312513, 0x6239ec48d1d5df21},
	"lulesh":         {287593, 0x5f01774400e8cd80},
	"lulesh/mpi1":    {287643, 0x55fe79d1085f0c21},
	"mg":             {48929, 0x489b9cf6c6263d61},
	"mg/mpi1":        {48949, 0x7483386e2ebb71d7},
	"sp":             {152569, 0x2349af2d5dc19e3e},
	"sp/mpi1":        {152609, 0xe2783e5ffeab53e6},
}

// digestSIDs hashes a SID log followed by any extra words (cut logs).
func digestSIDs(sids []int32, extra []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range sids {
		binary.LittleEndian.PutUint32(buf[:4], uint32(s))
		h.Write(buf[:4])
	}
	for _, x := range extra {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func checkSIDLog(t *testing.T, key string, steps uint64, sids []int32, extra []uint64) {
	t.Helper()
	if uint64(len(sids)) != steps {
		t.Errorf("%s: len(SIDLog) = %d, Steps = %d", key, len(sids), steps)
	}
	want, ok := sidLogGolden[key]
	if !ok {
		t.Errorf("%s: no golden entry", key)
		return
	}
	if got := digestSIDs(sids, extra); steps != want.steps || got != want.digest {
		t.Errorf("%s: steps %d digest %#x, want steps %d digest %#x", key, steps, got, want.steps, want.digest)
	}
}

// TestSIDLogGolden pins the step→instruction mapping static pruning replays
// and the step counts every outcome carries: a dispatch change that skips,
// repeats or reorders a step anywhere in any workload moves a digest.
func TestSIDLogGolden(t *testing.T) {
	for _, name := range Names() {
		a, _ := Get(name)
		t.Run(name, func(t *testing.T) {
			m, err := a.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			m.RecordSIDs = true
			tr, err := m.Run()
			if err != nil || tr.Status != trace.RunOK {
				t.Fatalf("clean run: %v %v", tr.Status, err)
			}
			checkSIDLog(t, name, m.Steps(), m.SIDLog(), nil)
		})
		t.Run(name+"/mpi1", func(t *testing.T) {
			p, err := a.MPIProgram()
			if err != nil {
				t.Fatal(err)
			}
			cfg := mpi.Config{Ranks: 2, Seed: DefaultSeed,
				ExtraBind: func(m *interp.Machine, _ int) error { return BindMathHosts(m) }}
			clean, err := mpi.Run(p, cfg)
			if err != nil || clean.Status() != trace.RunOK {
				t.Fatalf("clean world: %v", err)
			}
			var rank1 *interp.Machine
			cfg.Replay = clean.Recording
			cfg.ExtraBind = func(m *interp.Machine, r int) error {
				if r == 1 {
					m.RecordSIDs = true
					rank1 = m
				}
				return BindMathHosts(m)
			}
			res, err := mpi.Run(p, cfg)
			if err != nil || res.Status() != trace.RunOK {
				t.Fatalf("replayed world: %v", err)
			}
			if got, want := res.Ranks[1].Trace.Steps, clean.Ranks[1].Trace.Steps; got != want {
				t.Errorf("replayed rank 1 ran %d steps, clean %d", got, want)
			}
			checkSIDLog(t, name+"/mpi1", rank1.Steps(), rank1.SIDLog(), res.Cuts[1])
		})
	}
}
