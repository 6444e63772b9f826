package runtime

import (
	"sync"
	"time"

	"overlap/internal/hlo"
	"overlap/internal/tensor"
)

// mailKey addresses one asynchronous transfer instance: which
// CollectivePermuteStart produced it — the instruction for attribution,
// box its mailbox number on every device (its position in the tape's
// start list) — and the per-device execution count of that start. SPMD
// keeps the counters symmetric — the sender's k-th execution of a start
// pairs with the receiver's k-th execution of the matching done — so no
// further coordination is needed to match them.
type mailKey struct {
	start *hlo.Instruction
	box   int
	inst  int
}

// parcel is one posted tensor on its way into a mailbox. The fabric
// owns data from post to delivery: the sender either handed over a
// buffer it was done with or posted a private copy, and the receiving
// done adopts it. posted is when the sender posted it, from the run's
// epoch: the earliest its wire can start.
type parcel struct {
	key    mailKey
	data   *tensor.Tensor
	posted time.Duration
}

// mailboxes is one device's receive side: a queue per start, all under
// one lock, and one wake-up channel — only the device itself ever waits
// here, on one transfer at a time.
type mailboxes struct {
	mu sync.Mutex

	// queue[box][i] is instance water[box]+i of that start, empty until
	// it arrives; water[box] is one past the last instance the device
	// consumed. Per (start, device) instances are consumed strictly in
	// order — the receiver's k-th done blocks until instance k arrives
	// — so a delivery below the watermark, or into an occupied cell,
	// can only be a duplicate (injected or a fabric bug), and a queue
	// holds only in-flight instances however many times a loop executes
	// the start.
	queue [][]cell
	water []int

	// wake has room for one token: a delivery leaves one, the device
	// takes it and rechecks its queue.
	wake chan struct{}
}

// cell is one delivered transfer: its buffer, and when its wire ends,
// from the run's epoch — the earliest the done may take it.
type cell struct {
	data *tensor.Tensor
	due  time.Duration
}

// fabric is a run context's transfer addressing and timing: every
// device's mailboxes, the at-most-once bookkeeping, and when each link's
// wire is next free, over the edge and mailbox tables the Executable
// derived from the program. The movement between post and deliver — and
// for the process transport the serialization across real sockets —
// belongs to the pluggable transport underneath: tr, the current run's.
// The channel transport outlives a run with the context (chans); the
// process transport spawns its workers for each run.
//
// due[link] is when the wire of the last parcel taken onto that link
// ends, from the run's epoch; start zeroes it. Only the goroutine that
// takes the link's parcels — its source device on the channel
// transport, its serializer on the process one — touches it.
type fabric struct {
	eng   *engine
	tr    transport
	chans *chanTransport
	mail  []mailboxes
	due   []time.Duration
}

// newFabric lays out one mailbox per (device, start) of the tape. Its
// transport is bound per run (bind), and its data plane started by
// engine.run before launching devices, so a spawn failure surfaces as a
// run error instead of a hang.
func newFabric(e *engine) *fabric {
	starts := e.tape.starts
	f := &fabric{
		eng:  e,
		mail: make([]mailboxes, e.n),
		due:  make([]time.Duration, len(e.edges)),
	}
	// One cell per mailbox up front: in a healthy run at most one
	// instance of a start is waiting at a device, so queues never grow.
	cells := make([]cell, e.n*len(starts))
	for d := range f.mail {
		m := &f.mail[d]
		m.queue = make([][]cell, len(starts))
		for b := range m.queue {
			at := d*len(starts) + b
			m.queue[b] = cells[at : at : at+1]
		}
		m.water = make([]int, len(starts))
		m.wake = make(chan struct{}, 1)
	}
	return f
}

// bind constructs, or for the channel transport readies, the run's
// transport for the Executable's edges; its recorders declare their
// windows of a traced run's span slab.
func (f *fabric) bind() error {
	e := f.eng
	switch e.opts.Transport {
	case "", TransportChan:
		if f.chans == nil {
			f.chans = newChanTransport(e, f)
		}
		f.chans.bind()
		f.tr = f.chans
		return nil
	case TransportProc:
		tr, err := newProcTransportChecked(e, f)
		f.tr = tr
		return err
	}
	return formatErr("unknown transport %q", e.opts.Transport)
}

// reset readies the mailboxes for another run after a clean one, which
// consumed every parcel: only the watermarks and a leftover wake-up
// token remain.
func (f *fabric) reset() {
	f.tr = nil
	if f.chans != nil {
		f.chans.reset()
	}
	for d := range f.mail {
		m := &f.mail[d]
		clear(m.water)
		select {
		case <-m.wake:
		default:
		}
	}
}

// start brings the transport's data plane up, on links idle since the
// run's epoch.
func (f *fabric) start() error {
	clear(f.due)
	return f.tr.start()
}

// transit is the wire rule both transports apply where they take a
// parcel off its link's source. It makes the parcel's fault decision
// and, unless the parcel is dropped, fixes its wire: the wire starts
// when the parcel was posted or when the link's previous wire ends,
// whichever is later, and lasts the injected delay plus any injected
// extra. The due follows from the model, not from when any goroutine
// got round to the parcel; a dropped parcel never holds the link.
func (f *fabric) transit(link int, p parcel) (start, due time.Duration, dup *Fault, drop bool) {
	e := f.eng
	edge := e.edges[link]
	drop, dup, extra := e.faultActions(e.injLink(edge.src, edge.dst), p.key.start.Name)
	if drop {
		return 0, 0, nil, true
	}
	start = max(p.posted, f.due[link])
	f.due[link] = start + f.delay(p.key.box) + time.Duration(extra)
	return start, f.due[link], dup, false
}

// deliver hands one parcel to its destination mailbox, stamped with its
// due, enforcing at-most-once delivery per transfer instance. fault
// carries the injected-fault description when this delivery is itself
// the fault (a duplicate); a detected duplicate fails the run with a
// structured error attributed to the receiving device, and the buffer
// is not handed over a second time.
func (f *fabric) deliver(dst int, key mailKey, data *tensor.Tensor, due time.Duration, fault string) {
	m := &f.mail[dst]
	m.mu.Lock()
	q := m.queue[key.box]
	i := key.inst - m.water[key.box]
	if i < 0 || (i < len(q) && q[i].data != nil) {
		m.mu.Unlock()
		f.eng.fail(&RunError{
			Device: dst, Instr: key.start.Name, Phase: PhaseReceive,
			Elapsed: f.eng.sinceDur(), Fault: fault, Err: ErrDuplicateDelivery,
		})
		return
	}
	for len(q) <= i {
		q = append(q, cell{})
	}
	q[i] = cell{data, due}
	m.queue[key.box] = q
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default: // a token is already waiting; the device rechecks every queue state it finds
	}
}

// deliverNamed is deliver for transports that re-enter the parent from
// another process: the key arrives as the portable (name, inst) pair
// and is mapped back to the start's mailbox. fault is the injected
// fault the frame was marked with (a duplicated delivery carries its
// injection's description on both copies, so a detected duplicate is
// attributed identically to the in-process transport). An unknown name
// is a framing or routing bug and fails the run.
func (f *fabric) deliverNamed(dst int, name string, inst int, data *tensor.Tensor, due time.Duration, fault string) {
	box, ok := f.eng.boxes[name]
	if !ok || dst < 0 || dst >= f.eng.n {
		f.eng.fail(&RunError{
			Device: dst, Instr: name, Phase: PhaseReceive,
			Elapsed: f.eng.sinceDur(),
			Err:     formatErr("transport delivered unknown transfer %q to device %d", name, dst),
		})
		return
	}
	f.deliver(dst, f.key(box, inst), data, due, fault)
}

// key names instance inst of the start behind mailbox number box.
func (f *fabric) key(box, inst int) mailKey {
	t := f.eng.tape
	return mailKey{start: t.ops[t.starts[box]].in, box: box, inst: inst}
}

// delay is the wire occupancy this run injects for one transfer of the
// start behind a mailbox number.
func (f *fabric) delay(box int) time.Duration {
	t := f.eng.tape
	return f.eng.delay(t.ops[t.starts[box]].modeled)
}

// post hands a transfer to its link's transport without waiting for the
// wire. It reports false if the run aborted while the transport could
// not take it, or if no link exists for the edge — a peer table that
// names an edge the Executable never laid out — which fails the run
// with an error naming the edge instead of blocking forever.
func (f *fabric) post(src, dst int, key mailKey, data *tensor.Tensor, bytes int64) bool {
	link, ok := f.eng.link[[2]int{src, dst}]
	if !ok {
		f.eng.fail(&RunError{
			Device: src, Instr: key.start.Name, Phase: PhasePost,
			Elapsed: f.eng.sinceDur(),
			Err:     formatErr("%w %d->%d (permute pair absent at fabric build time)", ErrMissingLink, src, dst),
		})
		return false
	}
	if !f.tr.post(link, parcel{key: key, data: data, posted: f.eng.sinceDur()}) {
		return false
	}
	rtTransfers.Inc()
	rtTransferBytes.Add(float64(bytes))
	return true
}

// receive blocks until the transfer addressed by key — always the next
// instance the device has not consumed — is in device dst's mailbox, or
// the run aborts, and returns it with its due: the device becomes the
// buffer's owner, and waits out what is left of the wire itself.
func (f *fabric) receive(dst int, key mailKey) (*tensor.Tensor, time.Duration, bool) {
	m := &f.mail[dst]
	for {
		m.mu.Lock()
		if q := m.queue[key.box]; len(q) > 0 && q[0].data != nil {
			c := q[0]
			copy(q, q[1:])
			q[len(q)-1] = cell{}
			m.queue[key.box] = q[:len(q)-1]
			m.water[key.box] = key.inst + 1
			m.mu.Unlock()
			return c.data, c.due, true
		}
		m.mu.Unlock()
		select {
		case <-m.wake:
		case <-f.eng.abort:
			return nil, 0, false
		}
	}
}

// shutdown winds the transport down. Called after all devices have
// returned: remaining parcels (possible only on abort) drain into
// mailboxes nobody reads, which cannot block because delivery never
// waits on a reader.
func (f *fabric) shutdown() { f.tr.shutdown() }

// mailboxSizes reports, for one device, how many queue cells exist, how
// many hold an undelivered parcel, and how many starts have advanced
// their watermark — the boundedness receive guarantees, pinned by the
// fabric tests.
func (f *fabric) mailboxSizes(dev int) (mail, delivered, watermarks int) {
	m := &f.mail[dev]
	m.mu.Lock()
	defer m.mu.Unlock()
	for box, q := range m.queue {
		mail += len(q)
		for _, c := range q {
			if c.data != nil {
				delivered++
			}
		}
		if m.water[box] > 0 {
			watermarks++
		}
	}
	return mail, delivered, watermarks
}
