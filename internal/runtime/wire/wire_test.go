package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	goruntime "runtime"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, in Frame) Frame {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &in); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	// The length prefix, then the header — version, flags, src, dst, the
	// name's and the fault's lengths, inst, rank: 22 bytes — the strings,
	// the dims and the payload.
	want := 4 + 22 + len(in.Name) + len(in.Fault) + 4*len(in.Shape) + 8*len(in.Data)
	if buf.Len() != want {
		t.Fatalf("a frame of %q is %d bytes, want %d", in.Name, buf.Len(), want)
	}
	var out Frame
	if err := ReadFrame(&buf, &out); err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left over after one frame", buf.Len())
	}
	return out
}

// sampleFrames are representative frames: flags, fault attribution,
// negative zero, NaN payload bits and a scalar's empty shape. They seed
// FuzzReadFrame.
var sampleFrames = []Frame{
	{Src: 0, Dst: 1, Name: "cps.0", Inst: 0, Shape: []int{2, 3}, Data: []float64{1, 2, 3, 4, 5, 6}},
	{Src: 3, Dst: 0, Name: "gbkt2.permute.17", Inst: 41, Shape: []int{1}, Data: []float64{math.Copysign(0, -1)}},
	{Src: 1, Dst: 2, Name: "x", Inst: 7, Flags: FlagDup, Fault: "dup:link:1-2:7", Shape: []int{4}, Data: []float64{math.Float64frombits(0x7ff8000000000001), math.Inf(1), math.Inf(-1), -1e-300}},
	// Rank 0 is a scalar: one element, no dims.
	{Src: 2, Dst: 3, Name: "drop-me", Inst: 1, Flags: FlagDrop, Fault: "drop:link:2-3:1", Shape: []int{}, Data: []float64{42.5}},
}

// rawFrame lays a frame's bytes out as WriteFrame does, without its
// checks: how a corrupt or hostile writer would.
func rawFrame(name string, dims []uint32, payload int) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(minFrame+len(name)+4*len(dims)+8*payload))
	b = append(b, Version, 0)
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(name)))
	b = append(b, name...)
	b = binary.LittleEndian.AppendUint16(b, 0)
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(dims)))
	for _, d := range dims {
		b = binary.LittleEndian.AppendUint32(b, d)
	}
	return append(b, make([]byte, 8*payload)...)
}

// overflowFrame claims rank 4 with every dim 65536 and carries no
// payload: the dims' product, 2^64, wraps to 0 in an int.
var overflowFrame = rawFrame("cps.0", []uint32{65536, 65536, 65536, 65536}, 0)

// TestFrameRoundTrip encodes representative frames and decodes them
// back: every field must survive bit for bit.
func TestFrameRoundTrip(t *testing.T) {
	for _, in := range sampleFrames {
		out := roundTrip(t, in)
		if out.Src != in.Src || out.Dst != in.Dst || out.Name != in.Name ||
			out.Inst != in.Inst ||
			out.Flags != in.Flags || out.Fault != in.Fault {
			t.Fatalf("header fields changed: got %+v, want %+v", out, in)
		}
		if len(in.Shape) == 0 {
			if len(out.Shape) != 0 || len(out.Data) != 1 {
				t.Fatalf("scalar frame decoded with shape %v data %v", out.Shape, out.Data)
			}
		} else if !reflect.DeepEqual(out.Shape, in.Shape) {
			t.Fatalf("shape changed: got %v, want %v", out.Shape, in.Shape)
		}
		for i := range in.Data {
			if math.Float64bits(out.Data[i]) != math.Float64bits(in.Data[i]) {
				t.Fatalf("element %d changed bits: got %x, want %x",
					i, math.Float64bits(out.Data[i]), math.Float64bits(in.Data[i]))
			}
		}
	}
}

// TestFrameReuseAcrossReads checks the documented Shape/Data reuse: a
// second decode into the same Frame must not alias or resize away the
// correct values.
func TestFrameReuseAcrossReads(t *testing.T) {
	var buf bytes.Buffer
	big := Frame{Src: 0, Dst: 1, Name: "a", Shape: []int{8}, Data: []float64{1, 2, 3, 4, 5, 6, 7, 8}}
	small := Frame{Src: 1, Dst: 0, Name: "b", Inst: 2, Shape: []int{2}, Data: []float64{9, 10}}
	if err := WriteFrame(&buf, &big); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, &small); err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := ReadFrame(&buf, &f); err != nil {
		t.Fatal(err)
	}
	if err := ReadFrame(&buf, &f); err != nil {
		t.Fatal(err)
	}
	if f.Name != "b" || len(f.Data) != 2 || f.Data[0] != 9 || f.Data[1] != 10 {
		t.Fatalf("second decode into reused frame got %+v", f)
	}
}

// TestFrameCleanEOF pins the shutdown contract: a reader at a cleanly
// closed stream gets untouched io.EOF, while a stream cut mid-frame is
// an error that is NOT io.EOF.
func TestFrameCleanEOF(t *testing.T) {
	var f Frame
	if err := ReadFrame(bytes.NewReader(nil), &f); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}

	var buf bytes.Buffer
	in := Frame{Src: 0, Dst: 1, Name: "n", Shape: []int{1}, Data: []float64{1}}
	if err := WriteFrame(&buf, &in); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{2, 4, 10, len(whole) - 1} {
		err := ReadFrame(bytes.NewReader(whole[:cut]), &f)
		// A cut exactly after the length prefix surfaces as a wrapped
		// io.EOF; what matters is that no truncation is ever the bare
		// io.EOF a clean close returns.
		if err == nil || err == io.EOF {
			t.Fatalf("stream cut at %d/%d bytes: got %v, want a truncation error", cut, len(whole), err)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("stream cut at %d bytes: %v wraps neither io.ErrUnexpectedEOF nor io.EOF", cut, err)
		}
	}
}

// TestFrameRejectsCorruption drives hostile byte streams through the
// decoder: absurd lengths, wrong versions, and interior length fields
// that overrun the frame must all be rejected without panics or
// allocations proportional to the claimed size.
func TestFrameRejectsCorruption(t *testing.T) {
	encode := func(in Frame) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &in); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := encode(Frame{Src: 0, Dst: 1, Name: "abc", Fault: "f", Inst: 3, Shape: []int{2}, Data: []float64{1, 2}})

	mutate := func(name string, f func(b []byte)) {
		b := append([]byte(nil), base...)
		f(b)
		var out Frame
		if err := ReadFrame(bytes.NewReader(b), &out); err == nil {
			t.Fatalf("%s: decoder accepted a corrupt frame", name)
		}
	}
	mutate("huge length prefix", func(b []byte) {
		binary.LittleEndian.PutUint32(b, MaxFrameBytes+1)
	})
	mutate("tiny length prefix", func(b []byte) {
		binary.LittleEndian.PutUint32(b, 4)
	})
	mutate("wrong version", func(b []byte) { b[4] = Version + 1 })
	mutate("name overruns frame", func(b []byte) {
		binary.LittleEndian.PutUint16(b[14:], uint16(0xffff))
	})
	mutate("rank overruns frame", func(b []byte) {
		// rank sits after name (3) + faultLen (2+1) + inst (4).
		off := 16 + 3 + 2 + 1 + 4
		binary.LittleEndian.PutUint32(b[off:], 1<<20)
	})
	mutate("payload does not fill frame", func(b []byte) {
		// Shrink the claimed dim so elements stop matching the bytes.
		off := 16 + 3 + 2 + 1 + 4 + 4
		binary.LittleEndian.PutUint32(b[off:], 1)
	})

	// What no writer produces is no frame: dims whose product overflows
	// into agreement with an empty payload, and a name longer than a
	// writer allows.
	for name, b := range map[string][]byte{
		"dims overflow":  overflowFrame,
		"name too long":  rawFrame(strings.Repeat("x", maxNameLen+1), []uint32{1}, 1),
		"dims overcount": rawFrame("a", []uint32{1 << 31, 1 << 31, 4}, 2),
	} {
		var out Frame
		if err := ReadFrame(bytes.NewReader(b), &out); err == nil {
			t.Fatalf("%s: decoder accepted %+v", name, out)
		}
	}

	// A length prefix that claims more than the stream carries costs
	// memory in proportion to the stream, not to the claim.
	lying := append(binary.LittleEndian.AppendUint32(nil, MaxFrameBytes), base[4:]...)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	var out Frame
	if err := ReadFrame(bytes.NewReader(lying), &out); err == nil {
		t.Fatal("decoder accepted a frame shorter than its length prefix")
	}
	goruntime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*trustedBody {
		t.Errorf("a %d-byte stream claiming %d bytes allocated %d bytes", len(lying), MaxFrameBytes, grew)
	}

	// A name longer than the cap is refused at encode time.
	var buf bytes.Buffer
	err := WriteFrame(&buf, &Frame{Name: strings.Repeat("x", maxNameLen+1), Shape: []int{}, Data: []float64{}})
	if err == nil {
		t.Fatal("WriteFrame accepted an oversized name")
	}
}

// FuzzReadFrame: whatever bytes arrive, the decoder returns an error or
// a frame, never panics, and a frame it accepts re-encodes to exactly
// the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	for _, fr := range sampleFrames {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(overflowFrame)
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		var fr Frame
		if err := ReadFrame(r, &fr); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &fr); err != nil {
			t.Fatalf("an accepted frame does not re-encode: %v", err)
		}
		if read := b[:len(b)-r.Len()]; !bytes.Equal(buf.Bytes(), read) {
			t.Fatalf("an accepted frame re-encodes to %x, read from %x", buf.Bytes(), read)
		}
	})
}
