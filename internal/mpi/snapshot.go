package mpi

import (
	"context"
	"fmt"
	"sync"

	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// WorldSnapshot is a deep copy of a whole world's resumable state at a
// consistent cut: every rank's interp.Snapshot plus the world-level state
// outside the machines — undelivered point-to-point messages, and each
// rank's wildcard-receive log, replay cursor and collective-cut log.
//
// Cuts are collective boundaries (Result.Cuts): a collective completes at
// one world-wide moment, so pausing every rank right after the same round
// leaves no rank inside a primitive and no collective state to capture —
// the only cross-rank state is point-to-point messages sent before the cut
// and not yet received, which the snapshot carries in the per-pair queues.
// Snapshots are immutable once taken: one snapshot can seed any number of
// divergent restored worlds (RestoreWorld), which is what lets checkpointed
// MPI campaigns share the fault-free world prefix across injections. Message
// payloads are shared between the snapshot and restored worlds — they are
// read-only by construction (receives copy out of them) — while all queue
// and machine state is deep-copied.
type WorldSnapshot struct {
	round    int
	cuts     []uint64
	machines []*interp.Snapshot
	ranks    []rankSnap
}

// rankSnap is one rank's world-side state at the cut.
type rankSnap struct {
	pending [][]message
	anyLog  []int32
	anyNext int
	cutLog  []uint64
}

// Round returns the collective round index the snapshot was taken after.
func (s *WorldSnapshot) Round() int { return s.round }

// CutStep returns the dynamic step rank resumes at: the next instruction a
// restored rank executes is its dynamic step CutStep(rank).
func (s *WorldSnapshot) CutStep(rank int) uint64 { return s.cuts[rank] }

// Ranks returns the world size the snapshot was taken from.
func (s *WorldSnapshot) Ranks() int { return len(s.machines) }

// SnapshotWorld replays the recorded fault-free world under cfg and clean's
// Recording in one forward pass, pausing every rank at each selected
// collective boundary (rounds: ascending indices into clean.Cuts) and deep-
// copying the complete world state there. cfg must be the configuration
// clean was run under, with Fault and Replay nil (the pass is fault-free and
// replays clean.Recording); Mode is ignored — the pass runs untraced, so
// snapshots are record-free and restored traced runs stitch the clean prefix
// instead (see RestoreWorld's prime hook).
//
// The pass honors ctx between rounds. A pass that does not replay clean (a
// rank ends, or waits on a rank parked at its cut) ends its phase in an
// error, never a hang: a parked rank is not live, so the world's deadlock
// rule fails whoever waits on it. One forward pass serves any number of
// snapshots: the world keeps running from cut to cut, never restarting from
// step 0.
func SnapshotWorld(ctx context.Context, p *ir.Program, cfg Config, clean *Result, rounds []int) ([]*WorldSnapshot, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !p.Sealed() {
		return nil, fmt.Errorf("mpi: program not sealed")
	}
	if cfg.Fault != nil || cfg.Replay != nil {
		return nil, fmt.Errorf("mpi: snapshot pass must not set Fault or Replay (it replays the clean recording fault-free)")
	}
	if len(clean.Ranks) != cfg.Ranks || len(clean.Cuts) != cfg.Ranks {
		return nil, fmt.Errorf("mpi: clean world has %d ranks, snapshot pass wants %d", len(clean.Ranks), cfg.Ranks)
	}
	maxRound := -1
	for i, r := range rounds {
		if r < 0 || (i > 0 && r <= rounds[i-1]) {
			return nil, fmt.Errorf("mpi: snapshot rounds must be ascending and non-negative, got %v", rounds)
		}
		maxRound = r
	}
	for rank, cl := range clean.Cuts {
		if maxRound >= len(cl) {
			return nil, fmt.Errorf("mpi: round %d outside rank %d's %d collective cuts", maxRound, rank, len(cl))
		}
	}
	if len(rounds) == 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}

	cfg.Mode = interp.TraceOff
	cfg.Replay = clean.Recording
	w := newWorld(cfg.Ranks, cfg.Replay)
	machines := make([]*interp.Machine, cfg.Ranks)
	targets := make([]chan uint64, cfg.Ranks)
	type report struct {
		paused bool
		err    error
	}
	// Buffered for every report any phase could produce, so rank goroutines
	// never block on it and always exit once their target channel closes.
	reports := make(chan report, cfg.Ranks*(len(rounds)+1))
	for rank := 0; rank < cfg.Ranks; rank++ {
		m, err := w.newRankMachine(p, cfg, rank)
		if err != nil {
			return nil, err
		}
		m.SeedRNG(cfg.Seed + uint64(rank) + 1)
		machines[rank] = m
	}
	var wg sync.WaitGroup
	for rank := 0; rank < cfg.Ranks; rank++ {
		targets[rank] = make(chan uint64)
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for t := range targets[rank] {
				paused, err := machines[rank].RunUntil(t)
				if paused && err == nil {
					w.pause()
				} else {
					// The rank ended instead of pausing: the pass is not
					// replaying the clean world, and it stops after this
					// phase, so no rank runs again.
					w.exit(rank)
				}
				reports <- report{paused: paused, err: err}
			}
		}(rank)
	}
	// The world is abandoned wholesale once the last snapshot is taken (or
	// on failure). Every return below happens between phases, with every
	// rank parked or ended, so closing the target channels releases the
	// goroutines; the wait ensures none outlive the call.
	defer func() {
		for _, ch := range targets {
			close(ch)
		}
		wg.Wait()
	}()

	var snaps []*WorldSnapshot
	for _, round := range rounds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w.unpauseAll()
		for rank := 0; rank < cfg.Ranks; rank++ {
			targets[rank] <- clean.Cuts[rank][round]
		}
		var phaseErr error
		paused := true
		for i := 0; i < cfg.Ranks; i++ {
			rep := <-reports
			if rep.err != nil && phaseErr == nil {
				phaseErr = rep.err
			}
			if !rep.paused {
				paused = false
			}
		}
		if phaseErr != nil {
			return nil, phaseErr
		}
		if !paused {
			return nil, fmt.Errorf("mpi: world terminated before collective round %d (not a replay of the clean world?)", round)
		}
		snap, err := w.snapshot(machines, round, clean)
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, snap)
	}
	return snaps, nil
}

// snapshot deep-copies the paused world. Every rank is parked at its cut
// when this runs, so nobody is inside a primitive and the queues hold
// exactly the messages crossing the cut.
func (w *world) snapshot(machines []*interp.Machine, round int, clean *Result) (*WorldSnapshot, error) {
	s := &WorldSnapshot{
		round:    round,
		cuts:     make([]uint64, w.size),
		machines: make([]*interp.Snapshot, w.size),
		ranks:    make([]rankSnap, w.size),
	}
	for rank, m := range machines {
		if got, want := m.Steps(), clean.Cuts[rank][round]; got != want {
			return nil, fmt.Errorf("mpi: rank %d paused at step %d, cut %d expects %d (replay diverged)", rank, got, round, want)
		}
		ms, err := m.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("mpi: rank %d: %w", rank, err)
		}
		s.machines[rank] = ms
		s.cuts[rank] = m.Steps()
		st := w.ranks[rank]
		s.ranks[rank] = rankSnap{
			pending: clonePending(st.pending),
			anyLog:  append([]int32(nil), st.anyLog...),
			anyNext: st.anyNext,
			cutLog:  append([]uint64(nil), st.cutLog...),
		}
	}
	return s, nil
}

// clonePending copies every per-source queue into a fresh backing array
// (len == cap), so one world's queue growth never touches another's;
// message payloads stay shared, read-only.
func clonePending(pending [][]message) [][]message {
	cp := make([][]message, len(pending))
	for src, q := range pending {
		cp[src] = append([]message(nil), q...)
	}
	return cp
}

// RestoreWorld resumes a snapshotted world to completion, result-identical
// to a from-step-0 replay of the same configuration: every rank's machine is
// rebuilt and restored from its snapshot, the undelivered messages and
// wildcard-receive cursors are reinstated, and the ranks run to their own
// deterministic conclusions exactly as in Run.
//
// cfg must describe the world the snapshot was taken from (ranks, seeds,
// binds, step limit), with cfg.Replay set to the recording the snapshot's
// forward pass replayed. cfg.Fault, when non-nil, is injected into
// cfg.FaultRank for the resumed suffix; its step must be at or after the
// snapshot's cut on that rank, or it will never fire. prime, when non-nil,
// is called on each rank's machine after its snapshot is restored (fault
// already installed) and before it resumes — analyzed campaigns use it to
// seed the rank's record buffer with the clean prefix records
// (interp.Machine.PrimeTrace), making stitched traces byte-identical to
// from-step-0 traced runs.
func RestoreWorld(p *ir.Program, cfg Config, snap *WorldSnapshot, prime func(m *interp.Machine, rank int)) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !p.Sealed() {
		return nil, fmt.Errorf("mpi: program not sealed")
	}
	if snap.Ranks() != cfg.Ranks {
		return nil, fmt.Errorf("mpi: snapshot has %d ranks, config wants %d", snap.Ranks(), cfg.Ranks)
	}
	w := newWorld(cfg.Ranks, cfg.Replay)
	for rank := range snap.ranks {
		rs := &snap.ranks[rank]
		st := w.ranks[rank]
		st.pending = clonePending(rs.pending)
		st.anyLog = append([]int32(nil), rs.anyLog...)
		st.anyNext = rs.anyNext
		st.cutLog = append([]uint64(nil), rs.cutLog...)
	}
	return w.runRanks(cfg.Ranks, func(rank int) (*trace.Trace, bool, error) {
		return w.resumeRank(p, cfg, rank, snap, prime)
	})
}

// resumeRank rebuilds one rank's machine, restores its snapshot, installs
// the fault if this is the injected rank, primes its trace buffer, and runs
// it to completion.
func (w *world) resumeRank(p *ir.Program, cfg Config, rank int, snap *WorldSnapshot, prime func(m *interp.Machine, rank int)) (*trace.Trace, bool, error) {
	m, err := w.newRankMachine(p, cfg, rank)
	if err != nil {
		return nil, false, err
	}
	// Mode is already set (newRankMachine), so restored frames carry the
	// right tracing flags; Restore overwrites the RNG with the snapshot's.
	if err := m.Restore(snap.machines[rank]); err != nil {
		return nil, false, err
	}
	if cfg.Fault != nil && rank == cfg.FaultRank {
		f := *cfg.Fault
		m.Fault = &f
	}
	if prime != nil {
		prime(m, rank)
	}
	tr, err := m.Resume()
	return tr, m.FaultApplied, err
}
