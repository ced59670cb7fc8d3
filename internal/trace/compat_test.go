package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"fliptracker/internal/ir"
)

// fixturePath is the checked-in FTRC1 file, written by the retired v1
// encoder.
var fixturePath = filepath.Join("testdata", "v1_fixture.ftrc")

// fixtureTrace is the deterministic trace behind testdata/v1_fixture.ftrc.
// It exercises every v1 feature: markers, 0/1/2-source records, absent dsts,
// region ids, both scalar types, and sci6 outputs.
func fixtureTrace() *Trace {
	return randomTrace(42, 64)
}

// TestFTRC1FixtureStillDecodes reads a byte-for-byte checked-in FTRC1 file
// written by an earlier version of the codec. It must keep decoding exactly
// now that only FTRC2 is written — old campaign archives outlive code.
func TestFTRC1FixtureStillDecodes(t *testing.T) {
	raw, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	if !bytes.HasPrefix(raw, []byte(binMagicV1)) {
		t.Fatalf("fixture does not start with %q", binMagicV1)
	}
	got, err := ReadBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decode fixture: %v", err)
	}
	want := fixtureTrace()
	if got.ProgName != want.ProgName || got.FaultNote != want.FaultNote ||
		got.Status != want.Status || got.Steps != want.Steps {
		t.Fatalf("fixture header mismatch: %+v", got)
	}
	if !got.Recs.Equal(&want.Recs) {
		t.Fatal("fixture records do not match the generator")
	}
	if len(got.Output) != len(want.Output) {
		t.Fatalf("fixture outputs: %d vs %d", len(got.Output), len(want.Output))
	}
	for i := range got.Output {
		if got.Output[i] != want.Output[i] {
			t.Fatalf("fixture output %d differs", i)
		}
	}
}

// v1 streams with unknown flag bits set must be rejected, not misdecoded.
func TestReadBinaryV1RejectsCorruptFlags(t *testing.T) {
	// Hand-assemble a minimal v1 stream so the corrupt byte offset is known:
	// magic, empty ProgName/FaultNote, status 0, steps 0, then the payload.
	header := []byte(binMagicV1)
	header = append(header, 0, 0, 0, 0) // "", "", status=0, steps=0

	t.Run("output", func(t *testing.T) {
		stream := append(append([]byte{}, header...), 1) // 1 output
		stream = append(stream, 0x04)                    // flags with bit 2 set
		stream = append(stream, make([]byte, 8)...)      // value word
		stream = append(stream, 0)                       // 0 records
		if _, err := ReadBinary(bytes.NewReader(stream)); err == nil {
			t.Error("v1 output flags 0x04 accepted")
		}
	})
	t.Run("record", func(t *testing.T) {
		stream := append(append([]byte{}, header...), 0) // 0 outputs
		stream = append(stream, 1)                       // 1 record
		stream = append(stream, byte(ir.OpAdd))          // op
		stream = append(stream, 0x20)                    // flags with bit 5 set
		if _, err := ReadBinary(bytes.NewReader(stream)); err == nil {
			t.Error("v1 record flags 0x20 accepted")
		}
	})
	t.Run("nsrc3", func(t *testing.T) {
		stream := append(append([]byte{}, header...), 0) // 0 outputs
		stream = append(stream, 1)                       // 1 record
		stream = append(stream, byte(ir.OpAdd))          // op
		stream = append(stream, 0x0c)                    // flags: nsrc=3
		if _, err := ReadBinary(bytes.NewReader(stream)); err == nil {
			t.Error("v1 record with NSrc=3 accepted")
		}
	})
}
