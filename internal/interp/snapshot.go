package interp

import (
	"fmt"
	"slices"
	"sort"

	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// Snapshot is a copy of a Machine's complete resumable state, taken at a
// RunUntil pause point: memory, the explicit frame stack, the RNG, the step
// counter, emitted output, collected trace records, and run status.
// Snapshots are immutable once taken, so one snapshot can seed any number of
// divergent resumed runs (the basis of checkpointed injection campaigns, in
// the spirit of statistical samplers like FlipIt, §IV-C). Host-function
// state outside the machine (e.g. MPI channels) is not captured.
//
// Memory is captured copy-on-write: Snapshot copies the machine's page
// table (O(pages), not O(memory)) and marks every page shared on both
// sides, so the machine's next store to a shared page copies that one page
// instead of the snapshot paying for the whole memory up front. Frame
// registers are small, so they are copied eagerly into one arena.
type Snapshot struct {
	prog *ir.Program

	step       uint64
	pages      []*[pageWords]ir.Word
	memWords   int64
	memMat     int
	frames     []frameSnap
	frameCount uint64
	rng        uint64
	output     []trace.OutVal
	recs       trace.Recs
	status     trace.RunStatus
	applied    bool
}

// frameSnap is one saved activation record; the function is stored by index
// so a snapshot stays valid across machines sharing the same sealed program.
type frameSnap struct {
	fn      int
	fid     uint64
	pc      int
	regs    []ir.Word
	retFlip bool
	retBit  uint8
	retStep uint64
}

// Step returns the dynamic step the snapshot was taken at: the next
// instruction a restored machine executes is dynamic step Step.
func (s *Snapshot) Step() uint64 { return s.step }

// Snapshot deep-copies the machine's resumable state. The machine must be
// paused at a RunUntil point: not yet started or already finished machines
// cannot be snapshotted.
func (m *Machine) Snapshot() (*Snapshot, error) {
	if !m.started {
		return nil, fmt.Errorf("interp: snapshot of %q before it started (use RunUntil)", m.Prog.Name)
	}
	if m.finished {
		return nil, fmt.Errorf("interp: snapshot of %q after it finished", m.Prog.Name)
	}
	s := &Snapshot{
		prog:       m.Prog,
		step:       m.steps,
		pages:      m.mem.snapshotPages(),
		memWords:   m.mem.words,
		memMat:     m.mem.mat,
		frames:     make([]frameSnap, len(m.stack)),
		frameCount: m.frames,
		rng:        m.rng,
		status:     m.status,
		applied:    m.FaultApplied,
	}
	if len(m.output) > 0 {
		s.output = append([]trace.OutVal(nil), m.output...)
	}
	if m.recs.Len() > 0 {
		s.recs = m.recs.Clone()
	}
	// Frame registers are copied eagerly into one arena: per-register CoW
	// would put a branch in the hottest interpreter path for a few hundred
	// words per stack, so one allocation covers the whole stack instead.
	total := 0
	for _, fr := range m.stack {
		total += len(fr.regs)
	}
	arena := make([]ir.Word, total)
	off := 0
	for i, fr := range m.stack {
		regs := arena[off : off+len(fr.regs) : off+len(fr.regs)]
		copy(regs, fr.regs)
		off += len(fr.regs)
		s.frames[i] = frameSnap{
			fn:      fr.f.Index,
			fid:     fr.fid,
			pc:      fr.pc,
			regs:    regs,
			retFlip: fr.retFlip,
			retBit:  fr.retBit,
			retStep: fr.retStep,
		}
	}
	return s, nil
}

// SameState reports whether the paused machine is in exactly the state s
// captured, apart from FaultApplied and trace records: the step, status,
// every frame (function, frame id, pc, registers and any pending
// return-value flip), the frame counter, the RNG, the output and memory.
// The interpreter is deterministic, so a faulty machine in the state of a
// fault-free run's snapshot finishes exactly as that run does. Cheap fields
// are compared first; memory pages shared by pointer are skipped, so only
// pages either side wrote since they last shared a table are compared by
// content.
func (m *Machine) SameState(s *Snapshot) bool {
	if m.Prog != s.prog || m.steps != s.step || m.status != s.status ||
		m.frames != s.frameCount || m.rng != s.rng ||
		len(m.stack) != len(s.frames) || len(m.output) != len(s.output) {
		return false
	}
	for i := range m.stack {
		fr, fs := &m.stack[i], &s.frames[i]
		if fr.f.Index != fs.fn || fr.fid != fs.fid || fr.pc != fs.pc ||
			fr.retFlip != fs.retFlip || fr.retBit != fs.retBit || fr.retStep != fs.retStep ||
			!slices.Equal(fr.regs, fs.regs) {
			return false
		}
	}
	return slices.Equal(m.output, s.output) && m.mem.samePages(s.pages)
}

// Restore loads a snapshot into a machine that has not yet run, leaving it
// paused at the snapshot's step; Resume (or RunUntil) continues from there.
// The machine must have been built for the same sealed program instance the
// snapshot came from, with hosts already bound. The snapshot is deep-copied,
// so many machines can restore from one snapshot and diverge independently
// (e.g. under different faults). Trace recording follows the restoring
// machine's Mode from the pause point on; records carried by the snapshot
// (if it was taken from a tracing run) are kept.
func (m *Machine) Restore(s *Snapshot) error {
	if m.started {
		return fmt.Errorf("interp: restore into machine for %q after it ran", m.Prog.Name)
	}
	if err := m.checkHosts(); err != nil {
		return err
	}
	return m.restore(s)
}

// RestoreMachine builds a new machine for the snapshot's program positioned
// at the snapshot, with default limits. Host functions are unbound, exactly
// as after NewMachine: rebind them before resuming (binding does not disturb
// restored state — host state lives outside the snapshot, and unbound hosts
// are caught at Resume/RunUntil).
func RestoreMachine(p *ir.Program, s *Snapshot) (*Machine, error) {
	m, err := NewMachine(p)
	if err != nil {
		return nil, err
	}
	if err := m.restore(s); err != nil {
		return nil, err
	}
	return m, nil
}

// PrimeTrace seeds the record buffer of a restored (or paused) machine with
// the records a from-step-0 TraceFull run laid down before pausing where
// this machine stands, copied out of clean: the full trace of the same
// program's fault-free run, whose state up to here the machine shares. It
// reserves room for clean.Len()+64 records in total, so the resumed suffix
// appends without growth copies, and replaces any records the machine
// already held. Call it after Restore/RunUntil with Mode == TraceFull and
// before resuming; the final trace then equals a from-step-0 traced run's.
//
// The cut is the first clean record emitted at or after the pause. That is
// a record whose step is at least Steps(), or the OpRet record of a call
// still awaiting its return: a value-returning call's OpRet record carries
// the call site's step but is emitted when the callee returns, so record
// steps alone do not order a trace. The calls awaiting a return are the
// frames below the top of the stack, each holding its call's step. The
// predicate holds exactly for the records emitted after the pause, so it is
// monotone in record index and a binary search finds the cut.
func (m *Machine) PrimeTrace(clean *trace.Recs) {
	at, callers := m.steps, m.stack[:max(len(m.stack)-1, 0)]
	n := sort.Search(clean.Len(), func(i int) bool {
		step := clean.Step(i)
		if step >= at {
			return true
		}
		if clean.Op(i) != ir.OpRet {
			return false
		}
		for j := range callers {
			if callers[j].retStep == step {
				return true
			}
		}
		return false
	})
	prefix := clean.Slice(0, n)
	buf := trace.GetRecs(int(min(uint64(clean.Len())+64, maxTraceReserve)))
	buf.Extend(&prefix)
	m.recs = buf
}

// restore copies snapshot state into a not-yet-started machine.
func (m *Machine) restore(s *Snapshot) error {
	if m.Prog != s.prog {
		return fmt.Errorf("interp: snapshot of program %q does not match machine program %q (snapshots only restore into the same sealed program instance)",
			s.prog.Name, m.Prog.Name)
	}
	m.started = true
	m.status = s.status
	m.steps = s.step
	m.frames = s.frameCount
	m.rng = s.rng
	m.FaultApplied = s.applied
	// Adopt the snapshot's page table shared: the snapshot stays immutable
	// and the machine re-dirties only the pages it actually writes.
	m.mem.adoptShared(s.pages, s.memMat)
	m.output = nil
	if len(s.output) > 0 {
		m.output = append([]trace.OutVal(nil), s.output...)
	}
	m.recs = trace.Recs{}
	if s.recs.Len() > 0 {
		m.recs = s.recs.Clone()
	} else if m.Mode == TraceFull && m.TraceHint > 0 {
		// A record-free snapshot restored into a tracing machine: honor
		// TraceHint exactly as start() does, so resumed traced runs (e.g.
		// restored MPI worlds traced without a primed prefix) append
		// without growth copies. PrimeTrace, when used, replaces this
		// buffer with the clean prefix and a clean-trace-sized reserve.
		hint := m.TraceHint
		if hint > maxTraceReserve {
			hint = maxTraceReserve
		}
		m.recs = trace.GetRecs(int(hint))
	}
	m.stack = m.stack[:0]
	for _, fs := range s.frames {
		f := m.Prog.Funcs[fs.fn]
		regs := m.grabFrame(len(fs.regs))
		copy(regs, fs.regs)
		m.stack = append(m.stack, frame{
			f:       f,
			fid:     fs.fid,
			pc:      fs.pc,
			regs:    regs,
			full:    m.fullTrace(f),
			retFlip: fs.retFlip,
			retBit:  fs.retBit,
			retStep: fs.retStep,
		})
	}
	return nil
}
