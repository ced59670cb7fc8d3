package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"fliptracker/internal/ir"
)

// Compact binary trace codecs — the reproduction's take on the trace
// compression the paper points at for large traces (§IV-A, refs [26][27]).
//
// FTRC2 (the current format, written by WriteBinary) serializes the columnar
// record store column by column: dynamic steps, static ids and destination
// locations as zigzag-varint delta chains, the small-domain op/type/nsrc/
// taken fields as packed byte columns, the region-id column run-length
// encoded (it is -1 everywhere except at markers), and operand words through
// a last-value predictor — a source operand's value is almost always the
// value most recently recorded at that location, so a matching word costs
// one flag bit in the meta byte instead of eight bytes. Unpredicted words
// are raw 8-byte floats or zigzag varints depending on the record type.
//
// FTRC1 (the legacy interleaved record format) is read-only: nothing writes
// it any more, but ReadBinary sniffs the magic and still decodes it, pinned
// by the checked-in testdata/v1_fixture.ftrc.

const (
	binMagicV1 = "FTRC1\n"
	binMagicV2 = "FTRC2\n"
)

// FTRC2 meta byte layout: bit 0 taken, bits 1-2 nsrc, bits 3-4 type, bit 5
// dst value predicted, bits 6-7 source values 0/1 predicted.
const (
	metaTaken    = 1 << 0
	metaNSrcShft = 1
	metaTypShft  = 3
	metaDstPred  = 1 << 5
	metaSv0Pred  = 1 << 6
	metaSv1Pred  = 1 << 7
)

type binWriter struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
}

func (bw *binWriter) uvarint(v uint64) error {
	n := binary.PutUvarint(bw.buf[:], v)
	_, err := bw.w.Write(bw.buf[:n])
	return err
}

func (bw *binWriter) svarint(v int64) error { return bw.uvarint(Zigzag(v)) }

func (bw *binWriter) word(v ir.Word) error {
	binary.LittleEndian.PutUint64(bw.buf[:8], uint64(v))
	_, err := bw.w.Write(bw.buf[:8])
	return err
}

func (bw *binWriter) str(s string) error {
	if err := bw.uvarint(uint64(len(s))); err != nil {
		return err
	}
	_, err := bw.w.WriteString(s)
	return err
}

// writeHeader emits the magic and the fields both format versions share.
func (t *Trace) writeHeader(bw *binWriter) error {
	if _, err := bw.w.WriteString(binMagicV2); err != nil {
		return err
	}
	if err := bw.str(t.ProgName); err != nil {
		return err
	}
	if err := bw.str(t.FaultNote); err != nil {
		return err
	}
	if err := bw.uvarint(uint64(t.Status)); err != nil {
		return err
	}
	return bw.uvarint(t.Steps)
}

// WriteBinary serializes the trace in the columnar FTRC2 format.
func (t *Trace) WriteBinary(w io.Writer) error {
	bw := &binWriter{w: bufio.NewWriterSize(w, 1<<16)}
	if err := t.writeHeader(bw); err != nil {
		return err
	}
	if err := bw.uvarint(uint64(len(t.Output))); err != nil {
		return err
	}
	for _, o := range t.Output {
		// Typ<<1 | sci6 keeps any type clear of the marker bit, which v1's
		// Typ | sci6<<1 did not.
		flags := uint64(o.Typ) << 1
		if o.Sci6 {
			flags |= 1
		}
		if err := bw.uvarint(flags); err != nil {
			return err
		}
		if err := bw.word(o.Val); err != nil {
			return err
		}
	}
	recs := &t.Recs
	n := recs.Len()
	if err := bw.uvarint(uint64(n)); err != nil {
		return err
	}
	if n == 0 {
		return bw.w.Flush()
	}

	// Pass 1 (record order): compute the meta column, including the
	// last-value prediction flags. The predictor state must evolve exactly
	// as the decoder's will: per record, sources are looked up before any of
	// the record's own values enter the map, then sources and finally the
	// destination update it.
	meta := make([]byte, n)
	pred := map[Loc]ir.Word{}
	for i := 0; i < n; i++ {
		typ, nsrc := recs.Typ(i), recs.NSrc(i)
		if typ > 3 {
			return fmt.Errorf("trace: type %d does not fit the FTRC2 meta byte", typ)
		}
		if nsrc > 2 {
			return fmt.Errorf("trace: record %d: source count %d", i, nsrc)
		}
		b := byte(nsrc)<<metaNSrcShft | byte(typ)<<metaTypShft
		if recs.Taken(i) {
			b |= metaTaken
		}
		for j := 0; j < nsrc; j++ {
			if v, ok := pred[recs.Src(i, j)]; ok && v == recs.SrcVal(i, j) {
				b |= metaSv0Pred << j
			}
		}
		if dst := recs.Dst(i); dst != 0 {
			if v, ok := pred[dst]; ok && v == recs.DstVal(i) {
				b |= metaDstPred
			}
		}
		for j := 0; j < nsrc; j++ {
			if loc := recs.Src(i, j); loc != 0 {
				pred[loc] = recs.SrcVal(i, j)
			}
		}
		if dst := recs.Dst(i); dst != 0 {
			pred[dst] = recs.DstVal(i)
		}
		meta[i] = b
	}

	// Column sections, in decode order.
	for i := 0; i < n; i++ { // op
		if err := bw.w.WriteByte(byte(recs.Op(i))); err != nil {
			return err
		}
	}
	if _, err := bw.w.Write(meta); err != nil {
		return err
	}
	var prev int64
	for i := 0; i < n; i++ { // step deltas
		if err := bw.svarint(int64(recs.Step(i)) - prev); err != nil {
			return err
		}
		prev = int64(recs.Step(i))
	}
	prev = 0
	for i := 0; i < n; i++ { // sid deltas
		if err := bw.svarint(int64(recs.SID(i)) - prev); err != nil {
			return err
		}
		prev = int64(recs.SID(i))
	}
	// Region column, run-length encoded.
	for i := 0; i < n; {
		v := recs.RegionID(i)
		j := i + 1
		for j < n && recs.RegionID(j) == v {
			j++
		}
		if err := bw.uvarint(uint64(j - i)); err != nil {
			return err
		}
		if err := bw.svarint(int64(v)); err != nil {
			return err
		}
		i = j
	}
	// Destination presence bitmap + delta chain over present entries.
	var bits byte
	for i := 0; i < n; i++ {
		if recs.HasDst(i) {
			bits |= 1 << (i & 7)
		}
		if i&7 == 7 {
			if err := bw.w.WriteByte(bits); err != nil {
				return err
			}
			bits = 0
		}
	}
	if n&7 != 0 {
		if err := bw.w.WriteByte(bits); err != nil {
			return err
		}
	}
	prev = 0
	for i := 0; i < n; i++ {
		if !recs.HasDst(i) {
			continue
		}
		d := int64(recs.Dst(i))
		if err := bw.svarint(d - prev); err != nil {
			return err
		}
		prev = d
	}
	// Source locations, record-major; each slot keeps its own delta chain.
	var prevSrc [2]int64
	for i := 0; i < n; i++ {
		for j := 0; j < recs.NSrc(i); j++ {
			s := int64(recs.Src(i, j))
			if err := bw.svarint(s - prevSrc[j]); err != nil {
				return err
			}
			prevSrc[j] = s
		}
	}
	// Values, record-major, prediction-elided.
	wval := func(typ ir.Type, v ir.Word) error {
		if typ == ir.F64 {
			return bw.word(v)
		}
		return bw.svarint(v.Int())
	}
	for i := 0; i < n; i++ {
		typ, b := recs.Typ(i), meta[i]
		if recs.HasDst(i) && b&metaDstPred == 0 {
			if err := wval(typ, recs.DstVal(i)); err != nil {
				return err
			}
		}
		for j := 0; j < recs.NSrc(i); j++ {
			if b&(metaSv0Pred<<j) == 0 {
				if err := wval(typ, recs.SrcVal(i, j)); err != nil {
					return err
				}
			}
		}
	}
	return bw.w.Flush()
}

// binReader bundles the shared decode helpers over a buffered stream.
type binReader struct {
	br *bufio.Reader
}

func (rd *binReader) uvarint() (uint64, error) { return binary.ReadUvarint(rd.br) }

func (rd *binReader) svarint() (int64, error) {
	u, err := rd.uvarint()
	return Unzigzag(u), err
}

func (rd *binReader) str() (string, error) {
	n, err := rd.uvarint()
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("trace: string too long (%d)", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(rd.br, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func (rd *binReader) word() (ir.Word, error) {
	var b [8]byte
	if _, err := io.ReadFull(rd.br, b[:]); err != nil {
		return 0, err
	}
	return ir.Word(binary.LittleEndian.Uint64(b[:])), nil
}

// bytesBounded reads exactly n bytes, growing from a bounded capacity so a
// corrupt or hostile count cannot allocate everything up front: the stream
// must actually deliver each chunk before the next one is reserved.
func (rd *binReader) bytesBounded(n uint64) ([]byte, error) {
	out := make([]byte, 0, min(n, 1<<16))
	var chunk [1 << 12]byte
	for got := uint64(0); got < n; {
		c := min(n-got, uint64(len(chunk)))
		if _, err := io.ReadFull(rd.br, chunk[:c]); err != nil {
			return nil, err
		}
		out = append(out, chunk[:c]...)
		got += c
	}
	return out, nil
}

// ReadBinary deserializes a trace written by WriteBinary (FTRC2) or by the
// retired v1 encoder (FTRC1).
func ReadBinary(r io.Reader) (*Trace, error) {
	rd := &binReader{br: bufio.NewReaderSize(r, 1<<16)}
	magic := make([]byte, len(binMagicV1))
	if _, err := io.ReadFull(rd.br, magic); err != nil {
		return nil, fmt.Errorf("trace: binary header: %w", err)
	}
	t := &Trace{}
	var err error
	if t.ProgName, err = rd.str(); err != nil {
		return nil, err
	}
	if t.FaultNote, err = rd.str(); err != nil {
		return nil, err
	}
	st, err := rd.uvarint()
	if err != nil {
		return nil, err
	}
	t.Status = RunStatus(st)
	if t.Steps, err = rd.uvarint(); err != nil {
		return nil, err
	}
	switch string(magic) {
	case binMagicV1:
		err = readBodyV1(rd, t)
	case binMagicV2:
		err = readBodyV2(rd, t)
	default:
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// readOutputs decodes the output list; unpack maps a flag word to (typ,
// sci6) per format version.
func readOutputs(rd *binReader, t *Trace, unpack func(flags uint64) (ir.Type, bool, error)) error {
	nOut, err := rd.uvarint()
	if err != nil {
		return err
	}
	if nOut > 1<<30 {
		return fmt.Errorf("trace: output count %d too large", nOut)
	}
	// Grow from a bounded capacity instead of trusting the declared count:
	// a corrupt or hostile stream can claim any count below the sanity cap,
	// and the upfront make would allocate it all before the first decode
	// error surfaces.
	t.Output = make([]OutVal, 0, min(nOut, 1<<16))
	for i := uint64(0); i < nOut; i++ {
		var o OutVal
		flags, err := rd.uvarint()
		if err != nil {
			return err
		}
		if o.Typ, o.Sci6, err = unpack(flags); err != nil {
			return err
		}
		if o.Val, err = rd.word(); err != nil {
			return err
		}
		t.Output = append(t.Output, o)
	}
	return nil
}

// readBodyV1 decodes the legacy interleaved record stream.
func readBodyV1(rd *binReader, t *Trace) error {
	err := readOutputs(rd, t, func(flags uint64) (ir.Type, bool, error) {
		if flags&^3 != 0 {
			// The v1 output flags hold one type bit and the sci6 bit; any
			// higher bit means the encoder packed a type value >= 2 into
			// them (a silent collision in the old v1 encoder) or the stream
			// is corrupt. Either way the type cannot be recovered.
			return 0, false, fmt.Errorf("trace: v1 output flags %#x: type bits collide with sci6", flags)
		}
		return ir.Type(flags & 1), flags&2 != 0, nil
	})
	if err != nil {
		return err
	}
	nRecs, err := rd.uvarint()
	if err != nil {
		return err
	}
	if nRecs > 1<<34 {
		return fmt.Errorf("trace: record count %d too large", nRecs)
	}
	// Same bounded-growth rule as the outputs (records are the larger
	// target: each row spans nine columns).
	t.Recs.Grow(int(min(nRecs, 1<<16)))
	var prevStep uint64
	var prevSID int64
	for i := uint64(0); i < nRecs; i++ {
		var rc Rec
		op, err := rd.uvarint()
		if err != nil {
			return fmt.Errorf("trace: record %d: %w", i, err)
		}
		rc.Op = ir.Opcode(op)
		flags, err := rd.uvarint()
		if err != nil {
			return err
		}
		if flags&^0x1f != 0 {
			// Bits 5+ were never written by the v1 encoder; a set bit here
			// means corruption (or a future type squeezed into bit 1, which
			// would silently decode as Taken).
			return fmt.Errorf("trace: record %d: v1 flags %#x have unknown bits set", i, flags)
		}
		rc.Typ = ir.Type(flags & 1)
		rc.Taken = flags&(1<<1) != 0
		rc.NSrc = uint8((flags >> 2) & 3)
		if int(rc.NSrc) > len(rc.Src) {
			// The 2-bit field can encode 3 but the record holds 2 sources;
			// only corrupt input reaches here, and indexing would panic.
			return fmt.Errorf("trace: record %d: source count %d", i, rc.NSrc)
		}
		hasRegion := flags&(1<<4) != 0
		rc.RegionID = -1
		dStep, err := rd.uvarint()
		if err != nil {
			return err
		}
		prevStep += dStep
		rc.Step = prevStep
		dSID, err := rd.uvarint()
		if err != nil {
			return err
		}
		prevSID += Unzigzag(dSID)
		rc.SID = int32(prevSID)
		if hasRegion {
			rid, err := rd.uvarint()
			if err != nil {
				return err
			}
			rc.RegionID = int32(rid)
		}
		dst, err := rd.uvarint()
		if err != nil {
			return err
		}
		rc.Dst = Loc(dst)
		if rc.Dst != 0 {
			if rc.DstVal, err = rd.word(); err != nil {
				return err
			}
		}
		for s := 0; s < int(rc.NSrc); s++ {
			src, err := rd.uvarint()
			if err != nil {
				return err
			}
			rc.Src[s] = Loc(src)
			if rc.SrcVal[s], err = rd.word(); err != nil {
				return err
			}
		}
		t.Recs.Append(rc)
	}
	return nil
}

// readBodyV2 decodes the columnar format, section by section in the order
// WriteBinary emits them.
func readBodyV2(rd *binReader, t *Trace) error {
	err := readOutputs(rd, t, func(flags uint64) (ir.Type, bool, error) {
		return ir.Type(flags >> 1), flags&1 != 0, nil
	})
	if err != nil {
		return err
	}
	nRecs, err := rd.uvarint()
	if err != nil {
		return err
	}
	if nRecs > 1<<34 {
		return fmt.Errorf("trace: record count %d too large", nRecs)
	}
	if nRecs == 0 {
		return nil
	}
	n := int(nRecs)
	ops, err := rd.bytesBounded(nRecs)
	if err != nil {
		return fmt.Errorf("trace: op column: %w", err)
	}
	meta, err := rd.bytesBounded(nRecs)
	if err != nil {
		return fmt.Errorf("trace: meta column: %w", err)
	}
	for i, b := range meta {
		if (b>>metaNSrcShft)&3 > 2 {
			return fmt.Errorf("trace: record %d: source count %d", i, (b>>metaNSrcShft)&3)
		}
	}
	step := make([]uint64, 0, min(nRecs, 1<<16))
	var prev int64
	for i := 0; i < n; i++ {
		d, err := rd.svarint()
		if err != nil {
			return fmt.Errorf("trace: step column: %w", err)
		}
		prev += d
		step = append(step, uint64(prev))
	}
	sid := make([]int32, 0, min(nRecs, 1<<16))
	prev = 0
	for i := 0; i < n; i++ {
		d, err := rd.svarint()
		if err != nil {
			return fmt.Errorf("trace: sid column: %w", err)
		}
		prev += d
		sid = append(sid, int32(prev))
	}
	region := make([]int32, 0, min(nRecs, 1<<16))
	for len(region) < n {
		run, err := rd.uvarint()
		if err != nil {
			return fmt.Errorf("trace: region column: %w", err)
		}
		if run == 0 || run > uint64(n-len(region)) {
			return fmt.Errorf("trace: region column: run of %d at %d/%d records", run, len(region), n)
		}
		v, err := rd.svarint()
		if err != nil {
			return fmt.Errorf("trace: region column: %w", err)
		}
		for j := uint64(0); j < run; j++ {
			region = append(region, int32(v))
		}
	}
	hasDst, err := rd.bytesBounded((nRecs + 7) / 8)
	if err != nil {
		return fmt.Errorf("trace: dst bitmap: %w", err)
	}
	dst := make([]Loc, 0, min(nRecs, 1<<16))
	prev = 0
	for i := 0; i < n; i++ {
		if hasDst[i>>3]&(1<<(i&7)) == 0 {
			dst = append(dst, 0)
			continue
		}
		d, err := rd.svarint()
		if err != nil {
			return fmt.Errorf("trace: dst column: %w", err)
		}
		prev += d
		if prev == 0 {
			return fmt.Errorf("trace: record %d: present destination decodes to the zero location", i)
		}
		dst = append(dst, Loc(prev))
	}
	src := make([]Loc, 0, min(2*nRecs, 1<<16))
	var prevSrc [2]int64
	for i := 0; i < n; i++ {
		nsrc := int(meta[i]>>metaNSrcShft) & 3
		var s [2]Loc
		for j := 0; j < nsrc; j++ {
			d, err := rd.svarint()
			if err != nil {
				return fmt.Errorf("trace: src column: %w", err)
			}
			prevSrc[j] += d
			s[j] = Loc(prevSrc[j])
		}
		src = append(src, s[0], s[1])
	}
	// Values, record-major, replaying the encoder's last-value predictor.
	dstVal := make([]ir.Word, 0, min(nRecs, 1<<16))
	srcVal := make([]ir.Word, 0, min(2*nRecs, 1<<16))
	pred := map[Loc]ir.Word{}
	rval := func(typ ir.Type) (ir.Word, error) {
		if typ == ir.F64 {
			return rd.word()
		}
		v, err := rd.svarint()
		return ir.Word(v), err
	}
	for i := 0; i < n; i++ {
		b := meta[i]
		typ := ir.Type(b >> metaTypShft & 3)
		nsrc := int(b>>metaNSrcShft) & 3
		var dv ir.Word
		if dst[i] != 0 {
			if b&metaDstPred != 0 {
				v, ok := pred[dst[i]]
				if !ok {
					return fmt.Errorf("trace: record %d: destination value predicted from unseen location", i)
				}
				dv = v
			} else if dv, err = rval(typ); err != nil {
				return fmt.Errorf("trace: value section: %w", err)
			}
		}
		var sv [2]ir.Word
		for j := 0; j < nsrc; j++ {
			if b&(metaSv0Pred<<j) != 0 {
				v, ok := pred[src[2*i+j]]
				if !ok {
					return fmt.Errorf("trace: record %d: source %d value predicted from unseen location", i, j)
				}
				sv[j] = v
			} else if sv[j], err = rval(typ); err != nil {
				return fmt.Errorf("trace: value section: %w", err)
			}
		}
		for j := 0; j < nsrc; j++ {
			if loc := src[2*i+j]; loc != 0 {
				pred[loc] = sv[j]
			}
		}
		if dst[i] != 0 {
			pred[dst[i]] = dv
		}
		dstVal = append(dstVal, dv)
		srcVal = append(srcVal, sv[0], sv[1])
	}

	rs := &t.Recs
	rs.sid = sid
	rs.op = make([]ir.Opcode, n)
	rs.typ = make([]ir.Type, n)
	rs.nsrc = make([]uint8, n)
	rs.taken = make([]bool, n)
	for i := 0; i < n; i++ {
		rs.op[i] = ir.Opcode(ops[i])
		rs.typ[i] = ir.Type(meta[i] >> metaTypShft & 3)
		rs.nsrc[i] = meta[i] >> metaNSrcShft & 3
		rs.taken[i] = meta[i]&metaTaken != 0
	}
	rs.region = region
	rs.step = step
	rs.dst = dst
	rs.dstVal = dstVal
	rs.src = src
	rs.srcVal = srcVal
	return nil
}

// WriteBinaryFile writes the compact binary format to a path.
func (t *Trace) WriteBinaryFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBinaryFile reads a compact binary trace from a path.
func ReadBinaryFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}

// Zigzag maps a signed value onto an unsigned one with small magnitudes
// staying small, so signed deltas varint-encode compactly. Shared with the
// campaign journal codec (internal/journal), which frames the same varint
// vocabulary into checksummed records.
func Zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
