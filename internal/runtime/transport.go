package runtime

import "overlap/internal/runtime/wire"

// TransportKind selects the fabric implementation a run's transfers
// move over.
type TransportKind string

const (
	// TransportChan is the in-process fabric: the posting device puts
	// a transfer straight into the destination's mailbox. The zero value
	// of Options.Transport resolves here.
	TransportChan TransportKind = "chan"

	// TransportProc runs each communicating logical device as its own
	// spawned OS process: tensors leave the parent as length-prefixed
	// binary frames, cross a Unix socket into the source device's
	// worker, cross a second socket to the destination device's worker,
	// and come back up to the parent for delivery. Drops and duplicates
	// act inside the workers — below the mailbox layer, on the real
	// sockets. A frame carries no time: the replay times the run the same
	// way on either transport, an injected delay included.
	TransportProc TransportKind = "proc"
)

// ParseTransport maps a CLI/API string onto a TransportKind; the empty
// string is the channel transport.
func ParseTransport(s string) (TransportKind, error) {
	switch TransportKind(s) {
	case "", TransportChan:
		return TransportChan, nil
	case TransportProc:
		return TransportProc, nil
	}
	return "", formatErr("unknown transport %q (want %q or %q)", s, TransportChan, TransportProc)
}

// editFrame, when set, rewrites each frame the process transport sends
// down to its source worker. Set only by tests, to send a frame no
// schedule can have sent.
var editFrame func(*wire.Frame)

// workerExited, when set, is told how each process-transport worker
// exited once the run's teardown has reaped it: nil for exit 0. Set only
// by tests.
var workerExited func(dev int, err error)

// transport is the seam the process transport plugs into the fabric
// behind its build tag: it carries one posted parcel from its source
// device's worker to the destination mailbox and acts out the run's
// drop and duplicate decisions (fabric.faults) on the way. In process
// the fabric carries parcels itself and binds no transport. Everything
// above it — fault decisions, mailbox addressing, at-most-once
// enforcement, watermark pruning, the missing-link check — stays in
// the fabric, which is what keeps the bitwise cross-check against
// sim.Interpret transport-independent.
type transport interface {
	// start brings the data plane up for the Executable's directed
	// edges. Called once, before any device goroutine runs; an error
	// fails the run before it starts.
	start() error

	// post hands one parcel to the wire of the edge at position link of
	// the Executable's edge table, without waiting for the wire. It may
	// block while the edge's queue is full but must return false
	// instead of blocking forever once the run aborts.
	post(link int, p parcel) bool

	// shutdown tears the data plane down — goroutines joined, worker
	// processes reaped — after every device goroutine has returned.
	shutdown()
}
