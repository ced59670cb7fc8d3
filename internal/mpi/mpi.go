// Package mpi is the message-passing substrate of the reproduction: an SPMD
// simulator that runs one interpreter per rank (goroutines) and exposes
// MPI-like host calls to IR programs. It stands in for the MPI runtime of
// the paper's workloads (§IV-A): per-process traces are collected exactly as
// the extended LLVM-Tracer does, message-passing internals stay
// uninstrumented, and record-and-replay (§V-B) pins down the arrival order
// of wildcard receives so faulty runs can be matched against fault-free
// runs.
package mpi

import (
	"fmt"
	"sync"

	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// Host function names available to IR programs.
const (
	HostRank         = "mpi_rank"          // () -> rank
	HostSize         = "mpi_size"          // () -> world size
	HostSend         = "mpi_send"          // (dest, addr, count)
	HostRecv         = "mpi_recv"          // (src, addr, count)
	HostRecvAny      = "mpi_recv_any"      // (addr, count) -> src
	HostBarrier      = "mpi_barrier"       // ()
	HostAllreduceSum = "mpi_allreduce_sum" // (addr, count) elementwise f64 sum
)

// DeclareHosts declares every MPI host function on a program, so builders
// can emit the calls before the world exists.
func DeclareHosts(p *ir.Program) {
	p.DeclareHost(HostRank, 0, true)
	p.DeclareHost(HostSize, 0, true)
	p.DeclareHost(HostSend, 3, false)
	p.DeclareHost(HostRecv, 3, false)
	p.DeclareHost(HostRecvAny, 2, true)
	p.DeclareHost(HostBarrier, 0, false)
	p.DeclareHost(HostAllreduceSum, 2, false)
}

// Recording captures the arrival order of wildcard receives per rank, the
// record-and-replay mechanism of §V-B.
type Recording struct {
	// AnySources[rank] lists, in order, the source rank satisfied by each
	// mpi_recv_any call that rank made.
	AnySources [][]int32
}

// Config configures one world run. Validate reports configuration errors;
// Run calls it before launching any rank.
type Config struct {
	// Ranks is the world size (>= 1).
	Ranks int
	// Mode is the per-rank trace mode.
	Mode interp.TraceMode
	// FaultRank selects the rank receiving Fault (ignored if Fault nil).
	FaultRank int
	// Fault is injected into exactly one rank, as in the paper ("we focus
	// on the single process where the fault is injected").
	Fault *interp.Fault
	// Seed seeds each rank's RNG as Seed+rank, keeping ranks decorrelated
	// but runs reproducible.
	Seed uint64
	// Replay, when non-nil, forces wildcard receives to follow a prior
	// recording.
	Replay *Recording
	// StepLimit overrides the default per-rank step limit when nonzero.
	StepLimit uint64
	// TraceHint preallocates per-rank trace buffers (use a prior untraced
	// run's per-rank step count).
	TraceHint uint64
	// ExtraBind, when non-nil, binds additional app hosts on each machine.
	ExtraBind func(m *interp.Machine, rank int) error
}

// Validate checks the configuration before any rank launches.
func (cfg *Config) Validate() error {
	if cfg.Ranks < 1 {
		return fmt.Errorf("mpi: need at least 1 rank")
	}
	if cfg.Fault != nil && (cfg.FaultRank < 0 || cfg.FaultRank >= cfg.Ranks) {
		return fmt.Errorf("mpi: fault rank %d outside world [0, %d)", cfg.FaultRank, cfg.Ranks)
	}
	if cfg.Replay != nil && len(cfg.Replay.AnySources) > cfg.Ranks {
		return fmt.Errorf("mpi: replay recording covers %d ranks, world has %d", len(cfg.Replay.AnySources), cfg.Ranks)
	}
	return nil
}

// RankResult is one rank's outcome.
type RankResult struct {
	Rank  int
	Trace *trace.Trace
	// FaultApplied reports whether this rank's injected fault actually
	// fired — only the rank's machine knows (a completed run whose fault
	// never fired is indistinguishable from a tolerated one by trace alone).
	// Always false on ranks that received no fault.
	FaultApplied bool
}

// Result is a completed world run.
type Result struct {
	Ranks []RankResult
	// Recording is the wildcard-receive log (always captured).
	Recording *Recording
	// Cuts[rank][k] is rank's machine step immediately after its k-th
	// collective (barrier or allreduce) returned — the world's consistent
	// cut points. A collective completes at one world-wide moment, so
	// pausing every rank at Cuts[rank][k] yields a consistent cut: any
	// receive before a rank's cut is matched by a send before the sender's
	// cut, and only point-to-point messages crossing the boundary are in
	// flight. World snapshots (SnapshotWorld) are taken at these cuts. On a
	// clean world every rank has the same number of cuts (every rank joins
	// every round); crashed worlds may record ragged prefixes.
	Cuts [][]uint64
}

// Status returns the worst status across ranks (crash dominates hang
// dominates ok) — an MPI job fails if any rank fails.
func (r *Result) Status() trace.RunStatus {
	worst := trace.RunOK
	for _, rr := range r.Ranks {
		switch rr.Trace.Status {
		case trace.RunCrashed:
			return trace.RunCrashed
		case trace.RunHang:
			worst = trace.RunHang
		}
	}
	return worst
}

// message is one point-to-point payload. It is owned by the queue once sent
// and read-only afterwards (receives copy out of it).
type message []ir.Word

// queueCap bounds each (sender, receiver) queue: a send waits while its
// queue holds this many unreceived messages.
const queueCap = 1024

type rankState struct {
	pending [][]message // pending[src] is the FIFO queue from src to this rank
	anyLog  []int32
	anyNext int      // replay cursor
	cutLog  []uint64 // machine step after each completed collective
}

// world is the state the ranks of one run share. Ranks run on their own
// goroutines; every primitive takes mu, evaluates its condition, and either
// acts or awaits a change.
//
// Determinism follows from the structure. Messages travel in one FIFO queue
// per (sender, receiver) pair, receives name their source, and reductions
// sum contributions in rank index order, so no rank's action can disable
// another rank's pending one: the outcome of a world is the same whatever
// order its ranks run in (Kahn's determinacy argument). Wildcard receives
// are the exception, and the Recording pins those (§V-B).
//
// Termination follows from one rule: a world is dead when every live rank
// is waiting and nothing has changed since each one last looked. No event
// can then ever occur again, so every waiter fails with errAborted. That
// terminal configuration is a fact of the program, not of the schedule, so
// crashed worlds tear down identically on every replay.
type world struct {
	size   int
	ranks  []*rankState
	replay *Recording

	mu   sync.Mutex
	cond *sync.Cond
	// parts[rank] is rank's contribution to the current allreduce round
	// (non-nil once it contributed); bufN is the round's element count.
	parts [][]float64
	bufN  int
	// gen counts completed rounds; result holds the last one's sums. It is
	// only replaced when a round completes, which needs every rank, so each
	// waiter of the previous round has read it by then.
	gen    uint64
	result []float64
	// exited[rank] is set when rank's goroutine ends: it will never send or
	// contribute again.
	exited []bool
	// live counts ranks that have neither exited nor paused at a snapshot
	// cut (paused counts the latter). changes is bumped by every send,
	// receive, completed round and exit; waiting counts live ranks that
	// found their primitive unsatisfiable since the last change.
	live, paused int
	changes      uint64
	waiting      int
	dead         bool
}

var errAborted = fmt.Errorf("mpi: world deadlocked (every live rank blocked on another)")

func newWorld(size int, replay *Recording) *world {
	w := &world{
		size:   size,
		replay: replay,
		parts:  make([][]float64, size),
		exited: make([]bool, size),
		live:   size,
	}
	w.cond = sync.NewCond(&w.mu)
	for i := 0; i < size; i++ {
		w.ranks = append(w.ranks, &rankState{pending: make([][]message, size)})
	}
	return w
}

// changed records an event that may satisfy a waiter: every waiter looks
// again. Callers hold mu.
func (w *world) changed() {
	w.changes++
	w.waiting = 0
	w.cond.Broadcast()
}

// await is called, with mu held, by a live rank whose primitive cannot
// proceed. It returns once something has changed, or errAborted if the
// world is dead: this rank was the last live one to find nothing to do.
func (w *world) await() error {
	w.waiting++
	w.dieIfStuck()
	for c := w.changes; c == w.changes && !w.dead; {
		w.cond.Wait()
	}
	if w.dead {
		return errAborted
	}
	return nil
}

// dieIfStuck applies the deadlock rule. Callers hold mu.
func (w *world) dieIfStuck() {
	if w.live > 0 && w.waiting == w.live {
		w.dead = true
		w.cond.Broadcast()
	}
}

// exit publishes that rank's goroutine ended (normally or not). There is no
// world-wide kill on failure: each remaining rank runs to its own
// conclusion — completion, its own fault, or a dependency that can never be
// satisfied.
func (w *world) exit(rank int) {
	w.mu.Lock()
	w.exited[rank] = true
	w.live--
	w.changed()
	w.mu.Unlock()
}

// pause takes a rank parked at a snapshot cut out of the live set. Ranks
// still waiting on it can then be stuck, which ends the pass's phase.
func (w *world) pause() {
	w.mu.Lock()
	w.live--
	w.paused++
	w.dieIfStuck()
	w.mu.Unlock()
}

// unpauseAll returns every paused rank to the live set; the snapshot pass
// calls it before releasing any rank into the next phase.
func (w *world) unpauseAll() {
	w.mu.Lock()
	w.live += w.paused
	w.paused = 0
	w.mu.Unlock()
}

// send queues data (which the world takes ownership of) for dst. A send to
// an exited rank is dropped: nobody will ever receive it.
func (w *world) send(src, dst int, data []ir.Word) error {
	if dst < 0 || dst >= w.size {
		return fmt.Errorf("mpi: send to invalid rank %d", dst)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	q := &w.ranks[dst].pending[src]
	for len(*q) >= queueCap && !w.exited[dst] {
		if err := w.await(); err != nil {
			return err
		}
	}
	if !w.exited[dst] {
		*q = append(*q, data)
		w.changed()
	}
	return nil
}

// take dequeues the oldest message from src to rank. Callers hold mu.
func (w *world) take(rank, src int) message {
	q := &w.ranks[rank].pending[src]
	m := (*q)[0]
	*q = (*q)[1:]
	w.changed()
	return m
}

// recvFrom waits for a message from src to rank. It fails when src can
// never deliver: src is not a rank, or src exited with nothing queued.
func (w *world) recvFrom(rank, src int) ([]ir.Word, error) {
	if src < 0 || src >= w.size {
		return nil, fmt.Errorf("mpi: recv from invalid rank %d", src)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.ranks[rank].pending[src]) == 0 {
		if w.exited[src] {
			return nil, fmt.Errorf("mpi: recv from rank %d, which exited without sending", src)
		}
		if err := w.await(); err != nil {
			return nil, err
		}
	}
	return w.take(rank, src), nil
}

// recvAny receives the next message from any source; in replay mode it
// follows the recorded source order. With every peer exited and nothing
// queued it fails.
func (w *world) recvAny(rank int) (int, []ir.Word, error) {
	st := w.ranks[rank]
	if w.replay != nil && rank < len(w.replay.AnySources) {
		log := w.replay.AnySources[rank]
		if st.anyNext < len(log) {
			src := int(log[st.anyNext])
			st.anyNext++
			data, err := w.recvFrom(rank, src)
			if err == nil {
				st.anyLog = append(st.anyLog, int32(src))
			}
			return src, data, err
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		// Natural order: the lowest source with a queued message. Which
		// messages have arrived is the one schedule-dependent fact in a
		// world — exactly what the Recording pins down.
		allExited := true
		for src, q := range st.pending {
			if len(q) > 0 {
				st.anyLog = append(st.anyLog, int32(src))
				return src, w.take(rank, src), nil
			}
			allExited = allExited && (src == rank || w.exited[src])
		}
		if allExited {
			return 0, nil, fmt.Errorf("mpi: wildcard recv with every peer exited")
		}
		if err := w.await(); err != nil {
			return 0, nil, err
		}
	}
}

// allreduceSum performs an elementwise float64 sum across all ranks. Every
// rank must call it with the same count. The reduction is evaluated in rank
// index order whatever the arrival order, so results are deterministic.
func (w *world) allreduceSum(rank int, local []float64) ([]float64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.parts[rank] != nil {
		return nil, fmt.Errorf("mpi: rank %d re-entered allreduce round", rank)
	}
	arrived := 0
	for _, p := range w.parts {
		if p != nil {
			arrived++
		}
	}
	if arrived == 0 {
		w.bufN = len(local)
	} else if len(local) != w.bufN {
		return nil, fmt.Errorf("mpi: allreduce count mismatch: %d vs %d", len(local), w.bufN)
	}
	// The copy is always non-nil (even zero-length, for barriers): non-nil
	// is what marks the rank as having contributed to this round.
	cp := make([]float64, len(local))
	copy(cp, local)
	w.parts[rank] = cp
	if arrived+1 == w.size {
		sum := make([]float64, w.bufN)
		for _, p := range w.parts {
			for i, v := range p {
				sum[i] += v
			}
		}
		for i := range w.parts {
			w.parts[i] = nil
		}
		w.result = sum
		w.gen++
		w.changed()
		return w.result, nil
	}
	for gen := w.gen; w.gen == gen; {
		if w.roundDead() {
			return nil, errAborted
		}
		if err := w.await(); err != nil {
			return nil, err
		}
	}
	return w.result, nil
}

// roundDead reports whether the current allreduce round can never complete:
// some rank has not contributed and has exited (crashed, hung, or returned
// without joining the collective). Callers hold mu.
func (w *world) roundDead() bool {
	for r, p := range w.parts {
		if p == nil && w.exited[r] {
			return true
		}
	}
	return false
}

// barrier synchronizes all ranks (an allreduce of nothing).
func (w *world) barrier(rank int) error {
	_, err := w.allreduceSum(rank, nil)
	return err
}

// Run executes the program SPMD across cfg.Ranks ranks and returns the
// per-rank traces and the wildcard-receive recording.
func Run(p *ir.Program, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !p.Sealed() {
		return nil, fmt.Errorf("mpi: program not sealed")
	}
	w := newWorld(cfg.Ranks, cfg.Replay)
	return w.runRanks(cfg.Ranks, func(rank int) (*trace.Trace, bool, error) {
		return w.runRank(p, cfg, rank)
	})
}

// runRanks launches one goroutine per rank, each executing runOne to its own
// deterministic conclusion (exit publishes the end either way), and
// assembles the world Result — the spine shared by fresh runs (Run) and
// world-snapshot resumes (RestoreWorld).
func (w *world) runRanks(n int, runOne func(rank int) (*trace.Trace, bool, error)) (*Result, error) {
	results := make([]RankResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, applied, err := runOne(rank)
			results[rank] = RankResult{Rank: rank, Trace: tr, FaultApplied: applied}
			errs[rank] = err
			w.exit(rank)
		}(rank)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rec := &Recording{AnySources: make([][]int32, n)}
	cuts := make([][]uint64, n)
	for rank := 0; rank < n; rank++ {
		rec.AnySources[rank] = w.ranks[rank].anyLog
		cuts[rank] = w.ranks[rank].cutLog
	}
	return &Result{Ranks: results, Recording: rec, Cuts: cuts}, nil
}

// newRankMachine builds and fully binds one rank's machine under cfg —
// standard hosts, this world's MPI hosts, and the app's ExtraBind — without
// seeding the RNG or installing the fault. Fresh runs (runRank) seed and
// inject on top; world-snapshot restores instead load a snapshot, which
// overwrites the RNG, and install the fault afterwards.
func (w *world) newRankMachine(p *ir.Program, cfg Config, rank int) (*interp.Machine, error) {
	m, err := interp.NewMachine(p)
	if err != nil {
		return nil, err
	}
	m.Mode = cfg.Mode
	if cfg.StepLimit != 0 {
		m.StepLimit = cfg.StepLimit
	}
	m.TraceHint = cfg.TraceHint
	if err := m.BindStandardHosts(); err != nil {
		return nil, err
	}
	if err := w.bindMPIHosts(m, rank); err != nil {
		return nil, err
	}
	if cfg.ExtraBind != nil {
		if err := cfg.ExtraBind(m, rank); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (w *world) runRank(p *ir.Program, cfg Config, rank int) (*trace.Trace, bool, error) {
	m, err := w.newRankMachine(p, cfg, rank)
	if err != nil {
		return nil, false, err
	}
	m.SeedRNG(cfg.Seed + uint64(rank) + 1)
	if cfg.Fault != nil && rank == cfg.FaultRank {
		f := *cfg.Fault
		m.Fault = &f
	}
	tr, err := m.Run()
	return tr, m.FaultApplied, err
}

func (w *world) bindMPIHosts(m *interp.Machine, rank int) error {
	bind := func(name string, fn interp.HostFn) error {
		if _, ok := m.Prog.HostIndex(name); !ok {
			return nil // program does not use this primitive
		}
		return m.BindHost(name, fn)
	}
	if err := bind(HostRank, func(_ *interp.Machine, _ []ir.Word) (ir.Word, error) {
		return ir.I64Word(int64(rank)), nil
	}); err != nil {
		return err
	}
	if err := bind(HostSize, func(_ *interp.Machine, _ []ir.Word) (ir.Word, error) {
		return ir.I64Word(int64(w.size)), nil
	}); err != nil {
		return err
	}
	if err := bind(HostSend, func(mm *interp.Machine, args []ir.Word) (ir.Word, error) {
		dst, addr, count := args[0].Int(), args[1].Int(), args[2].Int()
		if addr < 0 || count < 0 || addr+count > int64(mm.MemLen()) {
			return 0, fmt.Errorf("send buffer [%d,%d) out of range", addr, addr+count)
		}
		buf := make([]ir.Word, count)
		mm.ReadMem(buf, addr)
		return 0, w.send(rank, int(dst), buf)
	}); err != nil {
		return err
	}
	if err := bind(HostRecv, func(mm *interp.Machine, args []ir.Word) (ir.Word, error) {
		src, addr, count := args[0].Int(), args[1].Int(), args[2].Int()
		if addr < 0 || count < 0 || addr+count > int64(mm.MemLen()) {
			return 0, fmt.Errorf("recv buffer [%d,%d) out of range", addr, addr+count)
		}
		data, err := w.recvFrom(rank, int(src))
		if err != nil {
			return 0, err
		}
		if int64(len(data)) != count {
			return 0, fmt.Errorf("recv size mismatch: got %d want %d", len(data), count)
		}
		mm.WriteMem(addr, data)
		return 0, nil
	}); err != nil {
		return err
	}
	if err := bind(HostRecvAny, func(mm *interp.Machine, args []ir.Word) (ir.Word, error) {
		addr, count := args[0].Int(), args[1].Int()
		if addr < 0 || count < 0 || addr+count > int64(mm.MemLen()) {
			return 0, fmt.Errorf("recv buffer [%d,%d) out of range", addr, addr+count)
		}
		src, data, err := w.recvAny(rank)
		if err != nil {
			return 0, err
		}
		if int64(len(data)) != count {
			return 0, fmt.Errorf("recv size mismatch: got %d want %d", len(data), count)
		}
		mm.WriteMem(addr, data)
		return ir.I64Word(int64(src)), nil
	}); err != nil {
		return err
	}
	if err := bind(HostBarrier, func(mm *interp.Machine, _ []ir.Word) (ir.Word, error) {
		if err := w.barrier(rank); err != nil {
			return 0, err
		}
		// Steps() inside a host call is the step of the NEXT instruction —
		// exactly the consistent cut point right after this collective
		// (see Result.Cuts).
		w.ranks[rank].cutLog = append(w.ranks[rank].cutLog, mm.Steps())
		return 0, nil
	}); err != nil {
		return err
	}
	return bind(HostAllreduceSum, func(mm *interp.Machine, args []ir.Word) (ir.Word, error) {
		addr, count := args[0].Int(), args[1].Int()
		if addr < 0 || count < 0 || addr+count > int64(mm.MemLen()) {
			return 0, fmt.Errorf("allreduce buffer [%d,%d) out of range", addr, addr+count)
		}
		buf := make([]ir.Word, count)
		mm.ReadMem(buf, addr)
		local := make([]float64, count)
		for i := range local {
			local[i] = buf[i].Float()
		}
		sum, err := w.allreduceSum(rank, local)
		if err != nil {
			return 0, err
		}
		for i, v := range sum {
			buf[i] = ir.F64Word(v)
		}
		mm.WriteMem(addr, buf)
		w.ranks[rank].cutLog = append(w.ranks[rank].cutLog, mm.Steps())
		return 0, nil
	})
}
