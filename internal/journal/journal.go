// Package journal is the durable results log of a fault-injection campaign:
// an append-only, checksummed, length-prefixed record file holding one entry
// per completed fault (or world), written in fault-index order by the
// ordered output side of the campaign engines. A campaign configured with
// WithJournal appends each outcome as it is emitted and fsyncs before
// acknowledging it, so a killed campaign resumes from its last committed
// fault index instead of restarting: on reopen the header is validated
// against the resuming campaign (engine, app, seed, test count, config
// fingerprint), the committed records are replayed, and only the remaining
// index range is scheduled. Because faults are pre-drawn from one seeded
// stream in deterministic index order, a resumed campaign's merged result is
// byte-identical to an uninterrupted run.
//
// On-disk layout (all integers varint-encoded with the same vocabulary as
// the compact binary trace codec in internal/trace/binio.go — uvarints for
// counts and ids, trace.Zigzag for signed values):
//
//	file   := magic frame(header) frame(record)*
//	magic  := "FTJNL1\n"
//	frame  := len:u32le payload crc32c(payload):u32le
//	header := version engine app seed tests fingerprint
//	record := index outcome kind step bit addr reg propClass propRanks
//
// The trailing CRC is the record's commit marker: a record is committed iff
// its frame is complete and its checksum verifies. Open scans the file
// front to back and cleanly truncates at the first frame that is torn
// (partial write at the kill point) or fails its CRC (bit rot), so the
// journal degrades to its longest valid prefix — never to silently wrong
// results. Corruption that a torn write cannot produce (a verified frame
// whose content is inconsistent, e.g. an out-of-order index) is reported as
// ErrCorrupt instead of repaired. A journal belongs to exactly one writer
// at a time; concurrent appends from two processes are not supported.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

const (
	magic   = "FTJNL1\n"
	version = 1
	// maxFrame bounds one frame's payload; real records are tens of bytes,
	// so anything larger is corruption, and the cap keeps a corrupt length
	// prefix from forcing a giant allocation.
	maxFrame = 1 << 20
)

// Engine tags which campaign engine wrote the journal, so an MPI journal
// can never silently resume a single-process campaign or vice versa.
type Engine uint8

const (
	// EngineInject marks single-process (inject.Campaign) journals.
	EngineInject Engine = iota
	// EngineMPI marks multi-rank world (mpi.Campaign) journals.
	EngineMPI
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineInject:
		return "inject"
	case EngineMPI:
		return "mpi"
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// Typed failure classes. Campaign-level wrappers add context but keep the
// class reachable through errors.Is.
var (
	// ErrCorruptHeader: the magic or header frame is damaged (or the file
	// is not a journal at all). Nothing can be salvaged.
	ErrCorruptHeader = errors.New("journal: corrupt or missing header")
	// ErrMismatch: the header is intact but describes a different campaign
	// (other engine, app, seed, test count, or config fingerprint), or a
	// replayed record contradicts the resuming campaign's drawn fault
	// stream. Resuming would splice two different campaigns together.
	ErrMismatch = errors.New("journal: campaign mismatch")
	// ErrCorrupt: a frame passed its checksum but its content is
	// internally inconsistent (out-of-order index, impossible field) — a
	// state no torn write can reach, so it is reported, not truncated.
	ErrCorrupt = errors.New("journal: inconsistent record")
)

// Header identifies the campaign a journal belongs to. Open refuses to
// resume unless every field matches, so outcomes recorded under one
// configuration can never be replayed into another.
type Header struct {
	// Engine is the writing campaign engine.
	Engine Engine
	// App labels the application under test (best effort; empty when the
	// campaign was built from a bare machine factory).
	App string
	// Seed is the campaign's fault-stream seed.
	Seed int64
	// Tests is the campaign's planned injection count (the cap, under
	// early stopping).
	Tests uint64
	// Fingerprint digests the rest of the campaign configuration that
	// determines per-index outcomes — the target population, and for MPI
	// campaigns the world shape (ranks, fault rank, world seed). Knobs
	// that are proven result-invariant (parallelism, pruning) are
	// deliberately excluded so a campaign may resume under different ones.
	Fingerprint uint64
}

// Record is one committed outcome. Fault and Outcome mirror the engines'
// types structurally (Outcome as a raw byte) so the package stays below
// both of them in the import graph.
type Record struct {
	// Index is the fault's position in the pre-drawn stream. Records are
	// committed in increasing contiguous index order from 0.
	Index uint64
	// Outcome is the §II-A classification byte (inject.Outcome).
	Outcome uint8
	// Fault is the drawn fault, re-verified against the resuming
	// campaign's stream on replay.
	Fault interp.Fault
	// PropClass and PropRanks carry the cross-rank propagation
	// classification of MPI journals (mpi.PropagationClass and the
	// diverged ranks); zero/empty for inject journals.
	PropClass uint8
	PropRanks []int
}

// Journal is an open, appendable journal positioned at its committed end.
type Journal struct {
	f    *os.File
	path string
	n    uint64 // committed records
}

// Create makes a fresh journal at path (truncating any existing file),
// writes the header frame and fsyncs it — plus the directory, so the file
// itself survives a crash right after creation.
func Create(path string, h Header) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f, path: path}
	if err := j.writeHeader(h); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

func (j *Journal) writeHeader(h Header) error {
	var p payload
	p.uvarint(version)
	p.uvarint(uint64(h.Engine))
	p.str(h.App)
	p.uvarint(trace.Zigzag(h.Seed))
	p.uvarint(h.Tests)
	p.uvarint(h.Fingerprint)
	if _, err := j.f.WriteString(magic); err != nil {
		return err
	}
	if err := writeFrame(j.f, p.buf); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	return syncDir(j.path)
}

// Open resumes an existing journal: it validates the header against want
// (ErrCorruptHeader / ErrMismatch), scans the committed records, truncates
// any torn or checksum-failing tail in place, and returns the journal
// positioned for appending together with the surviving records — a
// contiguous prefix of fault indices 0..len(recs)-1.
func Open(path string, want Header) (*Journal, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{f: f, path: path}
	recs, err := j.scan(want)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, recs, nil
}

// OpenOrCreate opens path for resuming when it holds a journal and creates
// a fresh one when it is absent or empty — the entry point the campaign
// engines use, so one WithJournal knob covers both the first run and every
// resume.
func OpenOrCreate(path string, h Header) (*Journal, []Record, error) {
	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		return Open(path, h)
	} else if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, err
	}
	j, err := Create(path, h)
	if err != nil {
		return nil, nil, err
	}
	return j, nil, nil
}

// scan validates the header and reads records until EOF or damage,
// truncating the file to the last committed frame.
func (j *Journal) scan(want Header) ([]Record, error) {
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(j.f, head); err != nil || string(head) != magic {
		return nil, fmt.Errorf("%w: bad magic in %s", ErrCorruptHeader, j.path)
	}
	off := int64(len(magic))
	hp, n, err := readFrame(j.f)
	if err != nil {
		return nil, fmt.Errorf("%w: header frame of %s: %v", ErrCorruptHeader, j.path, err)
	}
	off += n
	h, err := decodeHeader(hp)
	if err != nil {
		return nil, fmt.Errorf("%w: header of %s: %v", ErrCorruptHeader, j.path, err)
	}
	if err := h.check(want); err != nil {
		return nil, fmt.Errorf("journal %s: %w", j.path, err)
	}

	var recs []Record
	for {
		rp, n, err := readFrame(j.f)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn or bit-flipped tail: drop it and everything after it
			// (later frames, even if intact, would leave an index gap).
			if terr := j.f.Truncate(off); terr != nil {
				return nil, terr
			}
			break
		}
		r, err := decodeRecord(rp)
		if err != nil {
			return nil, fmt.Errorf("journal %s record %d: %w", j.path, len(recs), err)
		}
		if r.Index != uint64(len(recs)) {
			return nil, fmt.Errorf("%w: record %d of %s carries index %d", ErrCorrupt, len(recs), j.path, r.Index)
		}
		if r.Index >= h.Tests {
			return nil, fmt.Errorf("%w: record index %d beyond planned %d tests in %s", ErrCorrupt, r.Index, h.Tests, j.path)
		}
		recs = append(recs, r)
		off += n
	}
	if _, err := j.f.Seek(off, io.SeekStart); err != nil {
		return nil, err
	}
	j.n = uint64(len(recs))
	return recs, nil
}

// check compares two headers field by field, wrapping ErrMismatch with the
// first differing field.
func (h Header) check(want Header) error {
	switch {
	case h.Engine != want.Engine:
		return fmt.Errorf("%w: journal written by the %s engine, campaign runs on %s", ErrMismatch, h.Engine, want.Engine)
	case h.App != want.App:
		return fmt.Errorf("%w: journal app %q, campaign app %q", ErrMismatch, h.App, want.App)
	case h.Seed != want.Seed:
		return fmt.Errorf("%w: journal seed %d, campaign seed %d", ErrMismatch, h.Seed, want.Seed)
	case h.Tests != want.Tests:
		return fmt.Errorf("%w: journal planned %d tests, campaign plans %d", ErrMismatch, h.Tests, want.Tests)
	case h.Fingerprint != want.Fingerprint:
		return fmt.Errorf("%w: config fingerprints differ (%#x vs %#x)", ErrMismatch, h.Fingerprint, want.Fingerprint)
	}
	return nil
}

// Append commits one record: frame it, write it, fsync. When Append
// returns nil the record survives any subsequent kill.
func (j *Journal) Append(r Record) error {
	if r.Index != j.n {
		return fmt.Errorf("%w: appending index %d after %d committed records", ErrCorrupt, r.Index, j.n)
	}
	var p payload
	p.uvarint(r.Index)
	p.uvarint(uint64(r.Outcome))
	p.uvarint(uint64(r.Fault.Kind))
	p.uvarint(r.Fault.Step)
	p.uvarint(uint64(r.Fault.Bit))
	p.uvarint(trace.Zigzag(r.Fault.Addr))
	p.uvarint(uint64(r.Fault.Reg))
	p.uvarint(uint64(r.PropClass))
	p.uvarint(uint64(len(r.PropRanks)))
	for _, rk := range r.PropRanks {
		p.uvarint(trace.Zigzag(int64(rk)))
	}
	if err := writeFrame(j.f, p.buf); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.n++
	return nil
}

// Close releases the file handle. Records are durable at Append time, so
// Close errors lose nothing.
func (j *Journal) Close() error { return j.f.Close() }

// payload accumulates one frame's bytes before CRC framing.
type payload struct {
	buf []byte
}

func (p *payload) uvarint(v uint64) { p.buf = binary.AppendUvarint(p.buf, v) }

func (p *payload) str(s string) {
	p.uvarint(uint64(len(s)))
	p.buf = append(p.buf, s...)
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// writeFrame emits len|payload|crc as a single write, so a kill mid-frame
// leaves at most one torn frame at the tail.
func writeFrame(w io.Writer, payload []byte) error {
	frame := make([]byte, 4+len(payload)+4)
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	copy(frame[4:], payload)
	binary.LittleEndian.PutUint32(frame[4+len(payload):], crc32.Checksum(payload, crcTable))
	_, err := w.Write(frame)
	return err
}

// readFrame reads one frame, verifying its checksum, and reports the bytes
// consumed. io.EOF means a clean end exactly at a frame boundary; any other
// error means a torn or corrupt frame.
func readFrame(r io.Reader) ([]byte, int64, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("torn length prefix: %w", err)
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n > maxFrame {
		return nil, 0, fmt.Errorf("frame length %d exceeds limit", n)
	}
	body := make([]byte, int(n)+4)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, 0, fmt.Errorf("torn frame body: %w", err)
	}
	payload, sum := body[:n], binary.LittleEndian.Uint32(body[n:])
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, 0, fmt.Errorf("checksum mismatch")
	}
	return payload, int64(4 + len(body)), nil
}

// decoder walks one verified payload; any overrun means the frame content
// disagrees with its own framing (ErrCorrupt territory).
type decoder struct {
	buf []byte
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint in verified frame", ErrCorrupt)
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.buf)) {
		return "", fmt.Errorf("%w: string length %d overruns verified frame", ErrCorrupt, n)
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s, nil
}

func decodeHeader(p []byte) (Header, error) {
	d := decoder{buf: p}
	var h Header
	v, err := d.uvarint()
	if err != nil {
		return h, err
	}
	if v != version {
		return h, fmt.Errorf("journal version %d, this build reads %d", v, version)
	}
	eng, err := d.uvarint()
	if err != nil {
		return h, err
	}
	h.Engine = Engine(eng)
	if h.App, err = d.str(); err != nil {
		return h, err
	}
	seed, err := d.uvarint()
	if err != nil {
		return h, err
	}
	h.Seed = trace.Unzigzag(seed)
	if h.Tests, err = d.uvarint(); err != nil {
		return h, err
	}
	if h.Fingerprint, err = d.uvarint(); err != nil {
		return h, err
	}
	return h, nil
}

func decodeRecord(p []byte) (Record, error) {
	d := decoder{buf: p}
	var r Record
	var outcome, kind, bit, addr, reg, class, nRanks uint64
	for _, dst := range []*uint64{&r.Index, &outcome, &kind, &r.Fault.Step, &bit, &addr, &reg, &class, &nRanks} {
		v, err := d.uvarint()
		if err != nil {
			return r, err
		}
		*dst = v
	}
	if outcome > 255 || kind > 255 || bit > 63 || class > 255 {
		return r, fmt.Errorf("%w: field out of range", ErrCorrupt)
	}
	r.Outcome = uint8(outcome)
	r.Fault.Kind = interp.FaultKind(kind)
	r.Fault.Bit = uint8(bit)
	r.Fault.Addr = trace.Unzigzag(addr)
	r.Fault.Reg = ir.Reg(reg)
	r.PropClass = uint8(class)
	if nRanks > uint64(len(d.buf)) {
		// Each rank takes at least one byte; a larger count overruns.
		return r, fmt.Errorf("%w: propagation rank count %d overruns verified frame", ErrCorrupt, nRanks)
	}
	if nRanks > 0 {
		r.PropRanks = make([]int, nRanks)
		for i := range r.PropRanks {
			v, err := d.uvarint()
			if err != nil {
				return r, err
			}
			r.PropRanks[i] = int(trace.Unzigzag(v))
		}
	}
	return r, nil
}

// syncDir fsyncs the directory holding path, making a just-created journal
// durable by name.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	// Some platforms refuse directory fsync; the file data itself is
	// already synced, so degrade silently there.
	_ = d.Sync()
	return nil
}
