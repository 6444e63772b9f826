package runtime

import (
	"sync"

	"overlap/internal/hlo"
	"overlap/internal/obs"
	"overlap/internal/tensor"
)

// mailKey addresses one asynchronous transfer instance: which
// CollectivePermuteStart produced it and the per-device execution count
// of that start. SPMD keeps the counters symmetric — the sender's k-th
// execution of a start pairs with the receiver's k-th execution of the
// matching done — so no further coordination is needed to match them.
type mailKey struct {
	start *hlo.Instruction
	inst  int
}

// parcel is one tensor in flight on a link.
type parcel struct {
	key   mailKey
	data  *tensor.Tensor
	bytes int64
}

// fabric owns transfer addressing: every device's mailbox set, the
// at-most-once bookkeeping, and the edge table. The movement between
// post and deliver — wire pacing, fault actions, and (for the process
// transport) the serialization across real sockets — belongs to the
// pluggable transport underneath.
type fabric struct {
	eng   *engine
	edges map[[2]int]bool
	tr    transport

	// starts maps instruction names back to the start instructions, so
	// transports that cross a process boundary (where instruction
	// pointers cannot travel) can re-derive the mailbox key from the
	// portable (name, inst) pair.
	starts map[string]*hlo.Instruction

	mailMu []sync.Mutex
	mail   []map[mailKey]chan *tensor.Tensor

	// delivered marks transfer instances delivered to each device but
	// not yet consumed, enforcing the at-most-once invariant the
	// capacity-1 mailboxes rely on. Entries are pruned when the device
	// consumes the instance — the consume advances the per-start
	// watermark below, so the map holds only in-flight instances
	// instead of growing by one entry per instance for the life of the
	// run (long training loops execute the same start thousands of
	// times).
	delivered []map[mailKey]bool

	// watermark[dst][start] is one past the last instance of start that
	// device dst consumed. Per (start, dst) pair instances are consumed
	// strictly in order — the receiver's k-th done blocks until
	// instance k arrives — so any delivery below the watermark can only
	// be a duplicate (injected or a fabric bug) and fails the run just
	// as a tracked duplicate would.
	watermark []map[*hlo.Instruction]int
}

// linkBuffer bounds parcels queued on one edge before the wire; a start
// only blocks posting if this many sends are already pending there,
// and even then the transport is always draining, so posting can
// stall but never deadlock.
const linkBuffer = 64

// newFabric discovers the directed edges used by any asynchronous
// permute in the program (including loop bodies) and constructs the
// configured transport for them. The transport's data plane is not
// started yet — engine.run starts it before launching devices, so a
// spawn failure surfaces as a run error instead of a hang.
func newFabric(e *engine) (*fabric, error) {
	f := &fabric{
		eng:       e,
		edges:     map[[2]int]bool{},
		starts:    map[string]*hlo.Instruction{},
		mailMu:    make([]sync.Mutex, e.n),
		mail:      make([]map[mailKey]chan *tensor.Tensor, e.n),
		delivered: make([]map[mailKey]bool, e.n),
		watermark: make([]map[*hlo.Instruction]int, e.n),
	}
	for d := 0; d < e.n; d++ {
		f.mail[d] = map[mailKey]chan *tensor.Tensor{}
		f.delivered[d] = map[mailKey]bool{}
		f.watermark[d] = map[*hlo.Instruction]int{}
	}
	e.comp.Walk(func(in *hlo.Instruction) {
		if in.Op != hlo.OpCollectivePermuteStart {
			return
		}
		f.starts[in.Name] = in
		for _, p := range in.Pairs {
			f.edges[[2]int{p.Source, p.Target}] = true
		}
	})
	tr, err := newTransport(e, f)
	if err != nil {
		return nil, err
	}
	f.tr = tr
	return f, nil
}

// start brings the transport's data plane up.
func (f *fabric) start() error {
	edges := make([][2]int, 0, len(f.edges))
	for e := range f.edges {
		edges = append(edges, e)
	}
	return f.tr.start(edges)
}

// deliver hands one parcel to its destination mailbox, enforcing
// at-most-once delivery per transfer instance. fault carries the
// injected-fault description when this delivery is itself the fault (a
// duplicate); a detected duplicate fails the run with a structured
// error attributed to the receiving device.
func (f *fabric) deliver(dst int, key mailKey, data *tensor.Tensor, fault string) {
	f.mailMu[dst].Lock()
	if f.delivered[dst][key] || key.inst < f.watermark[dst][key.start] {
		f.mailMu[dst].Unlock()
		f.eng.fail(&RunError{
			Device: dst, Instr: key.start.Name, Phase: PhaseReceive,
			Elapsed: f.eng.sinceDur(), Fault: fault, Err: ErrDuplicateDelivery,
		})
		return
	}
	f.delivered[dst][key] = true
	ch, ok := f.mail[dst][key]
	if !ok {
		ch = make(chan *tensor.Tensor, 1)
		f.mail[dst][key] = ch
	}
	f.mailMu[dst].Unlock()
	// The at-most-once mark above guarantees room in the capacity-1
	// mailbox, so this send cannot block in a healthy run; the abort arm
	// is belt-and-braces for faulted ones.
	select {
	case ch <- data:
	case <-f.eng.abort:
	}
}

// deliverNamed is deliver for transports that re-enter the parent from
// another process: the key arrives as the portable (name, inst) pair
// and is mapped back to the start instruction. fault is the injected
// fault the frame was marked with (a duplicated delivery carries its
// injection's description on both copies, so a detected duplicate is
// attributed identically to the in-process transport). An unknown name
// is a framing or routing bug and fails the run.
func (f *fabric) deliverNamed(dst int, name string, inst int, data *tensor.Tensor, fault string) {
	start, ok := f.starts[name]
	if !ok || dst < 0 || dst >= f.eng.n {
		f.eng.fail(&RunError{
			Device: dst, Instr: name, Phase: PhaseReceive,
			Elapsed: f.eng.sinceDur(),
			Err:     formatErr("transport delivered unknown transfer %q to device %d", name, dst),
		})
		return
	}
	f.deliver(dst, mailKey{start: start, inst: inst}, data, fault)
}

// post enqueues a transfer on its link without waiting for the wire.
// It reports false if the run aborted while the link queue was full, or
// if no link exists for the edge — a malformed program or a pair
// mutated after fabric construction — which fails the run with an error
// naming the edge instead of blocking forever.
func (f *fabric) post(src, dst int, key mailKey, data *tensor.Tensor, bytes int64) bool {
	if !f.edges[[2]int{src, dst}] {
		f.eng.fail(&RunError{
			Device: src, Instr: key.start.Name, Phase: PhasePost,
			Elapsed: f.eng.sinceDur(),
			Err:     formatErr("%w %d->%d (permute pair absent at fabric build time)", ErrMissingLink, src, dst),
		})
		return false
	}
	if !f.tr.post(src, dst, parcel{key: key, data: data, bytes: bytes}) {
		return false
	}
	rtTransfers.Inc()
	rtTransferBytes.Add(float64(bytes))
	return true
}

// receive blocks until the transfer addressed by key arrives at device
// dst, or the run aborts. A consumed instance is pruned from the
// mailbox and delivered maps and folded into the per-start watermark,
// so repeated instances of one start (loop iterations, training steps)
// occupy O(in-flight) memory, not O(instances).
func (f *fabric) receive(dst int, key mailKey) (*tensor.Tensor, bool) {
	select {
	case t := <-f.mailbox(dst, key):
		f.mailMu[dst].Lock()
		delete(f.mail[dst], key)
		delete(f.delivered[dst], key)
		f.watermark[dst][key.start] = key.inst + 1
		f.mailMu[dst].Unlock()
		return t, true
	case <-f.eng.abort:
		return nil, false
	}
}

// mailbox returns the single-parcel channel for one transfer instance at
// one device, creating it on first use by either side. Each key carries
// exactly one parcel (validation enforces unique pair sources, the
// fabric enforces at-most-once delivery), so delivery into the
// capacity-1 channel never blocks the transport.
func (f *fabric) mailbox(dev int, key mailKey) chan *tensor.Tensor {
	f.mailMu[dev].Lock()
	defer f.mailMu[dev].Unlock()
	ch, ok := f.mail[dev][key]
	if !ok {
		ch = make(chan *tensor.Tensor, 1)
		f.mail[dev][key] = ch
	}
	return ch
}

// shutdown winds the transport down. Called after all devices have
// returned: remaining parcels (possible only on abort) drain into
// mailboxes nobody reads, which cannot block because each key's channel
// has room for its one parcel and in-flight sleeps select against the
// abort.
func (f *fabric) shutdown() { f.tr.shutdown() }

// traceEvents merges the transport's transfer spans. Only called after
// shutdown, when nothing appends.
func (f *fabric) spans() []obs.Span { return f.tr.spans() }

// mailboxSizes reports the current entry counts of the addressing maps
// for one device — the boundedness the pruning in receive guarantees,
// pinned by the fabric tests.
func (f *fabric) mailboxSizes(dev int) (mail, delivered, watermarks int) {
	f.mailMu[dev].Lock()
	defer f.mailMu[dev].Unlock()
	return len(f.mail[dev]), len(f.delivered[dev]), len(f.watermark[dev])
}
