package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"fliptracker/internal/ir"
)

// FTRC2, the compact binary trace format — the reproduction's take on the
// trace compression the paper points at for large traces (§IV-A, refs
// [26][27]). WriteBinary serializes the columnar record store column by
// column: dynamic steps, static ids and destination locations as
// zigzag-varint delta chains, the small-domain op/type/nsrc/taken fields as
// packed byte columns, the region-id column run-length encoded (it is -1
// everywhere except at markers), and operand words through a last-value
// predictor — a source operand's value is almost always the value most
// recently recorded at that location, so a matching word costs one flag bit
// in the meta byte instead of eight bytes. Unpredicted words are raw 8-byte
// floats or zigzag varints depending on the record type.
//
// FTRC2 is the only format: a stream with any other magic, the retired
// FTRC1 included, fails with "trace: bad magic".

const binMagic = "FTRC2\n"

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

// binWriter encodes onto a bufio.Writer, which keeps the first write error
// and reports it from Flush, so the encoders below never check one.
type binWriter struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
}

func (bw *binWriter) uvarint(v uint64) { bw.w.Write(bw.buf[:binary.PutUvarint(bw.buf[:], v)]) }

func (bw *binWriter) svarint(v int64) { bw.uvarint(Zigzag(v)) }

func (bw *binWriter) word(v ir.Word) {
	binary.LittleEndian.PutUint64(bw.buf[:8], uint64(v))
	bw.w.Write(bw.buf[:8])
}

func (bw *binWriter) str(s string) {
	bw.uvarint(uint64(len(s)))
	bw.w.WriteString(s)
}

// val writes an unpredicted operand word: raw for floats, a zigzag varint
// otherwise.
func (bw *binWriter) val(typ ir.Type, v ir.Word) {
	if typ == ir.F64 {
		bw.word(v)
	} else {
		bw.svarint(v.Int())
	}
}

// metaColumn computes the FTRC2 meta byte of every record, including the
// last-value prediction flags. The predictor state must evolve exactly as
// the decoder's will: per record, sources are looked up before any of the
// record's own values enter the map, then sources and finally the
// destination update it.
func metaColumn(recs *Recs) ([]byte, error) {
	n := recs.Len()
	meta := make([]byte, n)
	pred := map[Loc]ir.Word{}
	for i := 0; i < n; i++ {
		typ, nsrc := recs.Typ(i), recs.NSrc(i)
		if typ > 3 {
			return nil, fmt.Errorf("trace: type %d does not fit the FTRC2 meta byte", typ)
		}
		if nsrc > 2 {
			return nil, fmt.Errorf("trace: record %d: source count %d", i, nsrc)
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
	return meta, nil
}

// WriteBinary serializes the trace in the columnar FTRC2 format. A trace the
// format cannot hold is refused before the first byte is written.
func (t *Trace) WriteBinary(w io.Writer) error {
	recs := &t.Recs
	meta, err := metaColumn(recs)
	if err != nil {
		return err
	}
	bw := &binWriter{w: bufio.NewWriterSize(w, 1<<16)}
	bw.w.WriteString(binMagic)
	bw.str(t.ProgName)
	bw.str(t.FaultNote)
	bw.uvarint(uint64(t.Status))
	bw.uvarint(t.Steps)
	bw.uvarint(uint64(len(t.Output)))
	for _, o := range t.Output {
		// Typ<<1 | sci6 keeps any type clear of the sci6 bit.
		flags := uint64(o.Typ) << 1
		if o.Sci6 {
			flags |= 1
		}
		bw.uvarint(flags)
		bw.word(o.Val)
	}
	n := recs.Len()
	bw.uvarint(uint64(n))

	// Column sections, in decode order.
	for i := 0; i < n; i++ {
		bw.w.WriteByte(byte(recs.Op(i)))
	}
	bw.w.Write(meta)
	var prev int64
	for i := 0; i < n; i++ { // step deltas
		bw.svarint(int64(recs.Step(i)) - prev)
		prev = int64(recs.Step(i))
	}
	prev = 0
	for i := 0; i < n; i++ { // sid deltas
		bw.svarint(int64(recs.SID(i)) - prev)
		prev = int64(recs.SID(i))
	}
	// Region column, run-length encoded.
	for i := 0; i < n; {
		v := recs.RegionID(i)
		j := i + 1
		for j < n && recs.RegionID(j) == v {
			j++
		}
		bw.uvarint(uint64(j - i))
		bw.svarint(int64(v))
		i = j
	}
	// Destination presence bitmap + delta chain over present entries.
	var bits byte
	for i := 0; i < n; i++ {
		if recs.HasDst(i) {
			bits |= 1 << (i & 7)
		}
		if i&7 == 7 {
			bw.w.WriteByte(bits)
			bits = 0
		}
	}
	if n&7 != 0 {
		bw.w.WriteByte(bits)
	}
	prev = 0
	for i := 0; i < n; i++ {
		if recs.HasDst(i) {
			bw.svarint(int64(recs.Dst(i)) - prev)
			prev = int64(recs.Dst(i))
		}
	}
	// Source locations, record-major; each slot keeps its own delta chain.
	var prevSrc [2]int64
	for i := 0; i < n; i++ {
		for j := 0; j < recs.NSrc(i); j++ {
			bw.svarint(int64(recs.Src(i, j)) - prevSrc[j])
			prevSrc[j] = int64(recs.Src(i, j))
		}
	}
	// Values, record-major, prediction-elided.
	for i := 0; i < n; i++ {
		typ, b := recs.Typ(i), meta[i]
		if recs.HasDst(i) && b&metaDstPred == 0 {
			bw.val(typ, recs.DstVal(i))
		}
		for j := 0; j < recs.NSrc(i); j++ {
			if b&(metaSv0Pred<<j) == 0 {
				bw.val(typ, recs.SrcVal(i, j))
			}
		}
	}
	return bw.w.Flush()
}

// binReader decodes from a buffered stream with one error state: the first
// failure, a read error wrapped with the section being decoded or a failed
// check on the input, is kept in err, and every later read returns a zero
// value. Decode loops stop as soon as err is set, so a corrupt count never
// grows a column past what the stream actually delivered.
type binReader struct {
	br      *bufio.Reader
	section string
	err     error
}

// fail records a decode failure unless an earlier one is already kept.
func (rd *binReader) fail(format string, args ...any) {
	if rd.err == nil {
		rd.err = fmt.Errorf(format, args...)
	}
}

func (rd *binReader) full(b []byte) {
	if rd.err != nil {
		return
	}
	if _, err := io.ReadFull(rd.br, b); err != nil {
		rd.fail("trace: %s: %w", rd.section, err)
	}
}

func (rd *binReader) uvarint() uint64 {
	if rd.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(rd.br)
	if err != nil {
		rd.fail("trace: %s: %w", rd.section, err)
		return 0
	}
	return v
}

func (rd *binReader) svarint() int64 { return Unzigzag(rd.uvarint()) }

func (rd *binReader) str() string {
	n := rd.uvarint()
	if n > 1<<20 {
		rd.fail("trace: string too long (%d)", n)
		return ""
	}
	b := make([]byte, n)
	rd.full(b)
	return string(b)
}

func (rd *binReader) word() ir.Word {
	var b [8]byte
	rd.full(b[:])
	return ir.Word(binary.LittleEndian.Uint64(b[:]))
}

// val reads an unpredicted operand word, the inverse of binWriter.val.
func (rd *binReader) val(typ ir.Type) ir.Word {
	if typ == ir.F64 {
		return rd.word()
	}
	return ir.Word(rd.svarint())
}

// bytesBounded reads exactly n bytes, growing from a bounded capacity so a
// corrupt or hostile count cannot allocate everything up front: the stream
// must actually deliver each chunk before the next one is reserved.
func (rd *binReader) bytesBounded(n uint64) []byte {
	out := make([]byte, 0, min(n, 1<<16))
	var chunk [1 << 12]byte
	for got := uint64(0); got < n && rd.err == nil; {
		c := min(n-got, uint64(len(chunk)))
		rd.full(chunk[:c])
		out = append(out, chunk[:c]...)
		got += c
	}
	return out
}

// ReadBinary deserializes an FTRC2 trace written by WriteBinary.
func ReadBinary(r io.Reader) (*Trace, error) {
	rd := &binReader{br: bufio.NewReaderSize(r, 1<<16), section: "binary header"}
	magic := make([]byte, len(binMagic))
	rd.full(magic)
	if rd.err == nil && string(magic) != binMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	t := &Trace{ProgName: rd.str(), FaultNote: rd.str(), Status: RunStatus(rd.uvarint()), Steps: rd.uvarint()}
	rd.readBody(t)
	if rd.err != nil {
		return nil, rd.err
	}
	return t, nil
}

// readBody decodes the outputs and the record columns, section by section in
// the order WriteBinary emits them.
func (rd *binReader) readBody(t *Trace) {
	rd.section = "output list"
	nOut := rd.uvarint()
	if nOut > 1<<30 {
		rd.fail("trace: output count %d too large", nOut)
	}
	// Grow from a bounded capacity instead of trusting the declared count:
	// a corrupt or hostile stream can claim any count below the sanity cap,
	// and the upfront make would allocate it all before the first decode
	// error surfaces.
	t.Output = make([]OutVal, 0, min(nOut, 1<<16))
	for i := uint64(0); i < nOut && rd.err == nil; i++ {
		flags := rd.uvarint()
		t.Output = append(t.Output, OutVal{Typ: ir.Type(flags >> 1), Sci6: flags&1 != 0, Val: rd.word()})
	}
	rd.section = "record count"
	nRecs := rd.uvarint()
	if nRecs > 1<<34 {
		rd.fail("trace: record count %d too large", nRecs)
	}
	if nRecs == 0 || rd.err != nil {
		return
	}
	n := int(nRecs)
	rd.section = "op column"
	ops := rd.bytesBounded(nRecs)
	rd.section = "meta column"
	meta := rd.bytesBounded(nRecs)
	for i, b := range meta {
		if (b>>metaNSrcShft)&3 > 2 {
			rd.fail("trace: record %d: source count %d", i, (b>>metaNSrcShft)&3)
		}
	}
	// The remaining columns grow like the outputs: records are the larger
	// target, each row spanning nine columns.
	rd.section = "step column"
	step := make([]uint64, 0, min(nRecs, 1<<16))
	var prev int64
	for i := 0; i < n && rd.err == nil; i++ {
		prev += rd.svarint()
		step = append(step, uint64(prev))
	}
	rd.section = "sid column"
	sid := make([]int32, 0, min(nRecs, 1<<16))
	prev = 0
	for i := 0; i < n && rd.err == nil; i++ {
		prev += rd.svarint()
		sid = append(sid, int32(prev))
	}
	rd.section = "region column"
	region := make([]int32, 0, min(nRecs, 1<<16))
	for len(region) < n && rd.err == nil {
		run := rd.uvarint()
		if rd.err == nil && (run == 0 || run > uint64(n-len(region))) {
			rd.fail("trace: region column: run of %d at %d/%d records", run, len(region), n)
		}
		v := rd.svarint()
		for j := uint64(0); j < run && rd.err == nil; j++ {
			region = append(region, int32(v))
		}
	}
	rd.section = "dst bitmap"
	hasDst := rd.bytesBounded((nRecs + 7) / 8)
	rd.section = "dst column"
	dst := make([]Loc, 0, min(nRecs, 1<<16))
	prev = 0
	for i := 0; i < n && rd.err == nil; i++ {
		if hasDst[i>>3]&(1<<(i&7)) == 0 {
			dst = append(dst, 0)
			continue
		}
		prev += rd.svarint()
		if prev == 0 {
			rd.fail("trace: record %d: present destination decodes to the zero location", i)
		}
		dst = append(dst, Loc(prev))
	}
	rd.section = "src column"
	src := make([]Loc, 0, min(2*nRecs, 1<<16))
	var prevSrc [2]int64
	for i := 0; i < n && rd.err == nil; i++ {
		nsrc := int(meta[i]>>metaNSrcShft) & 3
		var s [2]Loc
		for j := 0; j < nsrc; j++ {
			prevSrc[j] += rd.svarint()
			s[j] = Loc(prevSrc[j])
		}
		src = append(src, s[0], s[1])
	}
	// Values, record-major, replaying the encoder's last-value predictor.
	rd.section = "value section"
	dstVal := make([]ir.Word, 0, min(nRecs, 1<<16))
	srcVal := make([]ir.Word, 0, min(2*nRecs, 1<<16))
	pred := map[Loc]ir.Word{}
	for i := 0; i < n && rd.err == nil; i++ {
		b := meta[i]
		typ := ir.Type(b >> metaTypShft & 3)
		nsrc := int(b>>metaNSrcShft) & 3
		var dv ir.Word
		if dst[i] != 0 {
			if b&metaDstPred == 0 {
				dv = rd.val(typ)
			} else if v, ok := pred[dst[i]]; ok {
				dv = v
			} else {
				rd.fail("trace: record %d: destination value predicted from unseen location", i)
			}
		}
		var sv [2]ir.Word
		for j := 0; j < nsrc; j++ {
			if b&(metaSv0Pred<<j) == 0 {
				sv[j] = rd.val(typ)
			} else if v, ok := pred[src[2*i+j]]; ok {
				sv[j] = v
			} else {
				rd.fail("trace: record %d: source %d value predicted from unseen location", i, j)
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
	if rd.err != nil {
		return
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
