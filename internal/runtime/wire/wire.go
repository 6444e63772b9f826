// Package wire is the frame codec of the process transport: it moves
// one asynchronous transfer — addressed by its start instruction's name
// and its instance, the loop iteration that posted it — across a Unix
// socket as one length-prefixed binary frame.
//
// Layout (all integers little-endian):
//
//	u32  payload length (bytes after this field)
//	u8   version (Version)
//	u8   flags (drop / dup, pre-decided by the parent's injector)
//	u32  src device
//	u32  dst device
//	u16  start-instruction name length, then the name bytes
//	u16  fault description length, then the bytes (the injected fault
//	     a duplicated frame is attributed to; usually empty)
//	u32  inst (the loop iteration that posted the transfer; 0 outside a loop)
//	u32  rank, then rank × u32 dims
//	     dims-product × u64 IEEE-754 float64 payload
//
// A reader accepts only what a writer can produce: a frame whose name
// or fault is longer than a writer allows, or whose dims' product does
// not count exactly the payload's elements, is an error, never a
// frame.
//
// Writes assemble the whole frame in one pooled scratch buffer and hand
// it to the socket as a single Write, so a frame is never interleaved
// with another writer's on a shared socket as long as callers serialize
// Writes per socket (the transport does). Reads use the same pool for
// the raw bytes; the float64 payload is decoded into the frame's own
// reused slice or, with ReadFrameInto, straight into storage the caller
// supplies — the buffer the delivered tensor will own.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// Version pins the frame layout; a reader rejects frames from a
// mismatched writer instead of misparsing them.
const Version = 3

// Flags carried in a frame header: fault actions the parent decided
// (deterministically, from the run's seeded plan) that the worker must
// act out on the real socket.
const (
	// FlagDrop: lose the frame at the wire — the worker consumes it and
	// never forwards it to the peer.
	FlagDrop = 1 << 0
	// FlagDup: deliver twice — the worker writes the frame to the peer
	// two times back to back.
	FlagDup = 1 << 1
)

// MaxFrameBytes bounds one frame (1 GiB). A length prefix beyond it is
// a corrupt or hostile stream, rejected before any allocation.
const MaxFrameBytes = 1 << 30

// maxNameLen bounds the start-instruction name; hlo names are short.
const maxNameLen = 1 << 15

// Frame is one transfer instance in flight between processes.
type Frame struct {
	Src, Dst int
	// Name and Inst address the transfer instance: the start
	// instruction's name (portable across process boundaries, unlike
	// the *hlo.Instruction the in-process mailboxes key on) and the
	// loop iteration that posted it.
	Name string
	Inst int
	// Flags carries pre-decided fault actions (FlagDrop, FlagDup).
	Flags uint8
	// Fault describes the injected fault behind a FlagDup/FlagDrop
	// frame (Fault.String form), so a detected duplicate delivery on
	// the far side is attributed to the injection that caused it.
	Fault string
	// Shape and Data are the tensor payload.
	Shape []int
	Data  []float64
}

// scratch pools the raw byte buffers of the encode/decode hot path.
var scratch = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getScratch(n int) *[]byte {
	p := scratch.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

func putScratch(p *[]byte) {
	*p = (*p)[:0]
	scratch.Put(p)
}

// minFrame is the payload length of the smallest header: an empty name
// and fault, and rank 0.
const minFrame = 22

// encodedSize returns the payload length of f (bytes after the u32
// length prefix).
func encodedSize(f *Frame) int {
	return 1 + 1 + 4 + 4 + 2 + len(f.Name) + 2 + len(f.Fault) + 4 + 4 + 4*len(f.Shape) + 8*len(f.Data)
}

// WriteFrame encodes f and writes it to w as one length-prefixed frame
// in a single Write call.
func WriteFrame(w io.Writer, f *Frame) error {
	if len(f.Name) > maxNameLen || len(f.Fault) > maxNameLen {
		return fmt.Errorf("wire: name/fault string exceeds %d bytes", maxNameLen)
	}
	n := encodedSize(f)
	if n > MaxFrameBytes {
		return fmt.Errorf("wire: frame %d bytes exceeds %d", n, MaxFrameBytes)
	}
	p := getScratch(4 + n)
	defer putScratch(p)
	b := *p
	binary.LittleEndian.PutUint32(b, uint32(n))
	b[4] = Version
	b[5] = f.Flags
	binary.LittleEndian.PutUint32(b[6:], uint32(f.Src))
	binary.LittleEndian.PutUint32(b[10:], uint32(f.Dst))
	binary.LittleEndian.PutUint16(b[14:], uint16(len(f.Name)))
	off := 16 + copy(b[16:], f.Name)
	binary.LittleEndian.PutUint16(b[off:], uint16(len(f.Fault)))
	off += 2
	off += copy(b[off:], f.Fault)
	binary.LittleEndian.PutUint32(b[off:], uint32(f.Inst))
	off += 4
	binary.LittleEndian.PutUint32(b[off:], uint32(len(f.Shape)))
	off += 4
	for _, d := range f.Shape {
		binary.LittleEndian.PutUint32(b[off:], uint32(d))
		off += 4
	}
	for _, v := range f.Data {
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
		off += 8
	}
	_, err := w.Write(b)
	return err
}

// ReadFrame reads one frame from r into f, reusing f's Shape and Data
// capacity when present. io.EOF is returned untouched on a clean
// end-of-stream (no partial frame), so callers can distinguish an
// orderly peer close from a truncated frame.
func ReadFrame(r io.Reader, f *Frame) error { return ReadFrameInto(r, f, nil) }

// ReadFrameInto is ReadFrame with the payload's storage chosen by the
// caller: once the header is parsed and checked, alloc is called with
// the frame's shape and must return a slice of exactly its element
// count, which the payload is decoded into and f.Data is set to. The
// shape slice is the frame's own and is only valid during the call. A
// nil alloc reuses f.Data's capacity, as ReadFrame does.
func ReadFrameInto(r io.Reader, f *Frame, alloc func(shape []int) []float64) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("wire: truncated frame length: %w", err)
		}
		return err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < minFrame || n > MaxFrameBytes {
		return fmt.Errorf("wire: frame length %d out of range [%d, %d]", n, minFrame, MaxFrameBytes)
	}
	p := scratch.Get().(*[]byte)
	defer putScratch(p)
	if err := readBody(r, p, n); err != nil {
		return fmt.Errorf("wire: truncated frame body: %w", err)
	}
	b := *p
	if b[0] != Version {
		return fmt.Errorf("wire: frame version %d, want %d", b[0], Version)
	}
	f.Flags = b[1]
	f.Src = int(binary.LittleEndian.Uint32(b[2:]))
	f.Dst = int(binary.LittleEndian.Uint32(b[6:]))
	nameLen := int(binary.LittleEndian.Uint16(b[10:]))
	if nameLen > maxNameLen || 12+nameLen+10 > n {
		return fmt.Errorf("wire: frame name length %d out of range for a frame of %d bytes", nameLen, n)
	}
	f.Name = string(b[12 : 12+nameLen])
	off := 12 + nameLen
	faultLen := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if faultLen > maxNameLen || off+faultLen+8 > n {
		return fmt.Errorf("wire: frame fault length %d out of range for a frame of %d bytes", faultLen, n)
	}
	f.Fault = string(b[off : off+faultLen])
	off += faultLen
	f.Inst = int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	rank := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if rank < 0 || off+4*rank > n {
		return fmt.Errorf("wire: frame rank %d overruns frame of %d bytes", rank, n)
	}
	f.Shape = resize(f.Shape, rank)
	// The element count is checked in floating point, so an absurd shape
	// cannot overflow into agreement with the bytes that remain.
	count := 1.0
	for i := range f.Shape {
		f.Shape[i] = int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		count *= float64(f.Shape[i])
	}
	if 8*count != float64(n-off) {
		return fmt.Errorf("wire: frame dims %v do not count the %d payload bytes", f.Shape, n-off)
	}
	elems := (n - off) / 8
	if alloc == nil {
		f.Data = resizeF(f.Data, elems)
	} else if f.Data = alloc(f.Shape); len(f.Data) != elems {
		return fmt.Errorf("wire: payload storage holds %d elements, frame carries %d", len(f.Data), elems)
	}
	for i := range f.Data {
		f.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	return nil
}

// trustedBody is how much of a frame body a reader allocates on the
// length prefix's word alone.
const trustedBody = 1 << 20

// readBody reads an n-byte frame body into *p. A buffer too small for
// it is replaced by one of at most trustedBody bytes, which doubles, up
// to n, each time the bytes that arrive fill it: a length prefix that
// claims more than the stream carries costs at most trustedBody plus
// twice what the stream does.
func readBody(r io.Reader, p *[]byte, n int) error {
	b := (*p)[:0]
	if cap(b) < n {
		b = make([]byte, 0, min(n, trustedBody))
	}
	for len(b) < n {
		if len(b) == cap(b) {
			b = append(make([]byte, 0, min(n, 2*cap(b))), b...)
		}
		k, err := io.ReadFull(r, b[len(b):min(n, cap(b))])
		b = b[:len(b)+k]
		if err != nil {
			*p = b
			return err
		}
	}
	*p = b
	return nil
}

func resize(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
