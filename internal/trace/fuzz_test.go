package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"

	"fliptracker/internal/ir"
)

// traceFromBytes derives a valid Trace from fuzz input, honouring the
// codec's structural invariants: Typ fits two bits, NSrc at most two, DstVal
// only meaningful when Dst is set, unused Src slots zero, RegionID -1 or
// non-negative.
func traceFromBytes(data []byte) *Trace {
	next := func() uint64 {
		if len(data) == 0 {
			return 0
		}
		v := uint64(data[0])
		data = data[1:]
		return v
	}
	t := &Trace{
		ProgName:  strings.Repeat("p", int(next()%8)),
		FaultNote: strings.Repeat("f", int(next()%8)),
		Status:    RunStatus(next()),
		Steps:     next()<<16 | next()<<8 | next(),
		// Non-nil like ReadBinary's output, so DeepEqual sees the same shape.
		Output: []OutVal{},
	}
	for i := uint64(0); i < next()%6; i++ {
		t.Output = append(t.Output, OutVal{
			Typ:  ir.Type(next() & 3),
			Sci6: next()&1 != 0,
			Val:  ir.Word(next()<<32 | next()),
		})
	}
	var step uint64
	for len(data) > 0 && t.Recs.Len() < 64 {
		step += next() // non-decreasing, like a real trace
		r := Rec{
			SID:      int32(next()<<8|next()) - 1<<14, // negative SIDs too
			Op:       ir.Opcode(next()),
			Typ:      ir.Type(next() & 3),
			RegionID: -1,
			NSrc:     uint8(next() % 3),
			Taken:    next()&1 != 0,
			Step:     step,
		}
		if next()&1 != 0 {
			r.RegionID = int32(next())
		}
		if next()&1 != 0 {
			r.Dst = Loc(next()<<8 | next() | 1)
			r.DstVal = ir.Word(next() << 24)
		}
		for s := 0; s < int(r.NSrc); s++ {
			r.Src[s] = Loc(next())
			r.SrcVal[s] = ir.Word(next() << 8)
		}
		t.Recs.Append(r)
	}
	return t
}

// FuzzTraceBinaryRoundTrip: any structurally valid trace, wide types
// included, must survive WriteBinary through ReadBinary unchanged.
func FuzzTraceBinaryRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(bytes.Repeat([]byte{0x00, 0x80, 0x01}, 30))
	// Shapes that stress the column codec: long constant runs (region
	// RLE), alternating dst presence, repeated operand locations (the
	// last-value predictor's hot path).
	f.Add(bytes.Repeat([]byte{7, 7, 7, 7}, 40))
	f.Add(bytes.Repeat([]byte{1, 0, 255, 0, 1, 128}, 25))
	f.Fuzz(func(t *testing.T, data []byte) {
		want := traceFromBytes(data)
		var buf bytes.Buffer
		if err := want.WriteBinary(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
		}
	})
}

// FuzzTraceReadBinary: arbitrary input must produce a trace or an error,
// never a panic or unbounded allocation. Seeds include a valid encoding so
// mutations explore near-valid corruption.
func FuzzTraceReadBinary(f *testing.F) {
	valid := traceFromBytes([]byte{3, 4, 1, 2, 3, 4, 2, 9, 9, 1, 1, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	var buf bytes.Buffer
	if err := valid.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-2])
	f.Add([]byte(binMagic))
	f.Add([]byte{})
	f.Add(append([]byte(binMagic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	// An empty trace, and headers whose output or record count is just past
	// its cap.
	var empty bytes.Buffer
	if err := (&Trace{}).WriteBinary(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add(binary.AppendUvarint(append([]byte(binMagic), 0, 0, 0, 0), 1<<30+1))
	f.Add(binary.AppendUvarint(append([]byte(binMagic), 0, 0, 0, 0, 0), 1<<34+1))
	// A valid stream with long region runs and repeated operand locations.
	var runs bytes.Buffer
	if err := traceFromBytes(bytes.Repeat([]byte{7, 7, 7, 7}, 40)).WriteBinary(&runs); err != nil {
		f.Fatal(err)
	}
	f.Add(runs.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful decode re-encodes to a decodable stream.
		var out bytes.Buffer
		if err := tr.WriteBinary(&out); err != nil {
			t.Fatalf("re-encode of accepted trace: %v", err)
		}
		if _, err := ReadBinary(io.LimitReader(&out, int64(out.Len()))); err != nil {
			t.Fatalf("re-decode of accepted trace: %v", err)
		}
	})
}
