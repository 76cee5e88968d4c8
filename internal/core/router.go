package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/memory"
	"repro/internal/obs"
)

// Cross-cluster message routing.
//
// The message heap is sharded per cluster (see clusterRT.heap), so a message
// cannot simply be charged to "the heap" any more: intra-cluster sends
// allocate on the one shard both tasks share, while an inter-cluster send
// has to move the argument bytes from the sender's shard to the receiver's.
// That move is exactly the wire path of the FLEX/32 run-time — "messages
// consist of a header and a list of packets containing the arguments"
// (Section 11) — so it goes through msgcodec for real: the sender encodes the
// argument list into its own shard, and the destination cluster's router
// decodes the bytes into a fresh message charged to the destination shard.
// Header fields that never leave the run-time (type, sender, sequence number,
// the initiate-reply linkage) travel alongside the packet bytes, the way the
// original header carried queue linkage next to the packets.
//
// Every cluster of a multi-cluster machine runs one router lane per source
// cluster (a task woken through a backend event), so deterministic (-sim)
// runs schedule router hops exactly like any other task and replay them
// byte-identically from the seed.  One lane per (source, destination) pair
// keeps messages between a given pair of tasks in send order while letting
// traffic from different clusters decode concurrently — a single lane per
// destination would serialise a fan-in that the senders produced in
// parallel.  The router does not occupy the destination PE's CPU — on the
// FLEX/32 the inter-cluster copy was the shared-memory bus at work, not a
// process competing for the receiver's processor — but the decode cost is
// still charged to the destination cluster's primary PE clock so
// simulated-time experiments see the transfer.

// routerBatch bounds how many queued wire messages the router takes per lock
// acquisition.  Draining in small batches keeps the queue lock cheap under
// fan-in bursts without letting one drain hold the destination PE for an
// unbounded stretch.
const routerBatch = 16

// wireMsg is one cross-cluster message in flight: codec-encoded argument
// bytes in the source cluster's heap shard, plus the message header the
// router rebuilds the message around on the destination side.  dest is the
// receiving task's record, resolved once on the send side; its in-queue's
// closed flag is the liveness check at delivery time.
type wireMsg struct {
	dest *taskRec
	// msg is the header (type, sender, sequence numbers, causal edge,
	// initiate-reply linkage); its Args travel as the wire bytes at off.
	msg *Message

	srcHeap *memory.Allocator // source shard holding the wire bytes
	off     int               // allocation offset in srcHeap
	destOff int               // storage reserved on the destination shard at send time
	size    int               // charged bytes (header + packets model)
	wireLen int               // codec bytes actually written at off

	// flush, when non-nil, marks a barrier token: the router opens the gate
	// once everything enqueued before it has been delivered.  No payload.
	flush backend.Gate
	// enq is the backend-clock enqueue time, stamped only when metrics are
	// enabled and the message took the queued (non-inline) path; the drain
	// observes enqueue->delivery lane queue time from it.
	enq time.Time
}

// clusterRouter delivers inbound cross-cluster messages for one destination
// cluster from one source cluster.
//
// Delivery has two modes.  When the lane has no backlog (empty queue, no
// batch in flight), the sending task delivers its own message inline — the
// common uncongested case, and the one that keeps concurrent senders
// decoding in parallel instead of funnelling through one task.  When the
// lane has backlog, messages queue and the lane task drains them in small
// batches.
//
// The ordering contract is per sender task: a task's messages to a given
// receiver arrive in send order.  A sending task is itself serial, so its
// next send cannot start while its previous inline delivery is still in
// progress; and the inline path is taken only when the queue is empty AND no
// batch is being delivered, so a sender whose earlier message is still
// queued (or in a batch) can never leapfrog it.  Concurrent inline
// deliveries by different senders are unordered with respect to each other,
// exactly as concurrent direct sends always were.
type clusterRouter struct {
	vm   *VM
	cl   *clusterRT // destination cluster this lane serves
	src  int        // source cluster this lane receives from
	wake backend.Event
	done backend.Gate

	mu       sync.Mutex
	q        []wireMsg
	batching bool // the lane task is delivering a taken batch
	closed   bool

	// Lane observability (vm.RouterStats): inline deliveries by sending
	// tasks, messages queued for the lane task, and backlog messages the
	// lane task drained.  Guarded by mu; bumping them costs nothing extra
	// because every path below already holds it.
	statInline   int64
	statEnqueued int64
	statDrained  int64
}

// startRouters spawns the router lanes: for every destination cluster, one
// lane per other (source) cluster, in (destination, source) order so spawn
// order is deterministic.  Single-cluster machines skip routing entirely:
// every send is intra-cluster.
func (vm *VM) startRouters() error {
	nums := vm.clusterNumbers()
	if len(nums) < 2 {
		return nil
	}
	for _, n := range nums {
		cl, _ := vm.cluster(n)
		cl.router = make(map[int]*clusterRouter, len(nums)-1)
		for _, src := range nums {
			if src == n {
				continue
			}
			r := &clusterRouter{vm: vm, cl: cl, src: src, wake: vm.backend.NewEvent(), done: vm.backend.NewGate()}
			vm.backend.Spawn(fmt.Sprintf("pisces.router/c%d-c%d", src, n), r.run)
			cl.router[src] = r
			vm.routers = append(vm.routers, r)
		}
	}
	return nil
}

// routeMessage sends one message across clusters: the argument list is
// codec-encoded into the sender's heap shard, the message's storage on the
// destination shard is reserved, and the wire bytes are handed to the
// destination cluster's router.  Reserving the destination storage here —
// not at delivery — keeps the pre-shard error contract: a send that the
// receiving cluster cannot hold fails with ErrHeapExhausted at the sender
// instead of vanishing in flight.  It returns the charged byte size so the
// caller can charge send ticks; the header and both allocations are owned by
// the router from here on.  from is the sending cluster (it must differ from
// the destination's), dest the receiving task's record.
func (vm *VM) routeMessage(from *clusterRT, dest *taskRec, msg *Message) (int, error) {
	t0 := vm.spanStart()
	wire, off, size, err := vm.encodeOut(from.heap, msg.Type, msg.Args)
	if err != nil {
		recycleMessage(msg)
		return 0, err
	}
	destOff, err := dest.cluster.heap.Alloc(size)
	if err != nil {
		_ = from.heap.Free(off)
		recycleMessage(msg)
		return 0, vm.heapErr(err)
	}
	// The destination-shard reservation is this message's heap charge (the
	// delivered message takes ownership of it in deliver, not through
	// chargeMessageOn), so count it here to keep charge/recover balanced.
	if vm.metricsOn() {
		vm.om.heapCharges.Inc()
		vm.om.heapMsgBytes.Observe(int64(size))
	}
	msg.Args = nil // the arguments travel as the wire bytes
	msg.edge = vm.newEdge()
	if msg.reply != nil {
		msg.reply.edge = msg.edge
	}
	vm.emitSend(from.cfg.Number, dest.cluster.cfg.Number, msg.edge, msg.Type, t0)
	w := wireMsg{dest: dest, msg: msg, srcHeap: from.heap, off: off, destOff: destOff, size: size, wireLen: len(wire)}
	if !dest.cluster.router[from.cfg.Number].send(w) {
		_ = from.heap.Free(off)
		_ = dest.cluster.heap.Free(destOff)
		msg.reply.deliver(NilTask)
		recycleMessage(msg)
		return 0, ErrVMTerminated
	}
	return size, nil
}

// send hands one wire message to the lane: delivered inline by the calling
// task when the lane has no backlog, queued for the lane task otherwise.  It
// reports false if the lane has already been stopped (VM shutdown).
func (r *clusterRouter) send(w wireMsg) bool {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false
	}
	if len(r.q) == 0 && !r.batching {
		r.statInline++
		r.mu.Unlock()
		r.deliver(&w)
		return true
	}
	if r.vm.metricsOn() {
		w.enq = r.vm.om.reg.Now()
	}
	r.q = append(r.q, w)
	r.statEnqueued++
	r.mu.Unlock()
	r.wake.Pulse()
	return true
}

// flush queues a barrier token behind everything already on the lane,
// skipping the inline fast path so queue order holds strictly.  It reports
// false if the lane has already been stopped.
func (r *clusterRouter) flush(g backend.Gate) bool {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false
	}
	r.q = append(r.q, wireMsg{flush: g})
	r.statEnqueued++
	r.mu.Unlock()
	r.wake.Pulse()
	return true
}

// run is the router task body: wait for wire messages, drain them in small
// batches, exit once stopped and fully drained.  Waiting goes through the
// backend event, so the wait is scheduler-visible under a deterministic
// backend; the done gate is opened on exit for stop to wait on.
func (r *clusterRouter) run() {
	defer r.done.Open()
	batch := make([]wireMsg, 0, routerBatch)
	for {
		r.mu.Lock()
		for len(r.q) == 0 {
			if r.closed {
				r.mu.Unlock()
				return
			}
			r.mu.Unlock()
			r.wake.Wait()
			r.mu.Lock()
		}
		r.batching = true
		n := len(r.q)
		if n > routerBatch {
			n = routerBatch
		}
		batch = append(batch[:0], r.q[:n]...)
		r.statDrained += int64(n)
		rest := copy(r.q, r.q[n:])
		for i := rest; i < len(r.q); i++ {
			r.q[i] = wireMsg{} // drop heap/gate references
		}
		r.q = r.q[:rest]
		r.mu.Unlock()
		for i := range batch {
			r.deliver(&batch[i])
			batch[i] = wireMsg{}
		}
		r.mu.Lock()
		r.batching = false
		r.mu.Unlock()
	}
}

// deliver decodes one wire message into the destination shard and queues it
// on the destination task.  The wire bytes are freed from the source shard
// unconditionally — delivered or dropped, the in-flight copy is recovered.
func (r *clusterRouter) deliver(w *wireMsg) {
	if w.flush != nil {
		w.flush.Open()
		return
	}
	vm, msg := r.vm, w.msg
	args, t0, derr := vm.decodeIn(w.srcHeap.Bytes(w.off, w.wireLen))
	if !w.enq.IsZero() && !t0.IsZero() {
		vm.om.laneQueue.ObserveDuration(t0.Sub(w.enq))
	}
	defer vm.emitDeliver(r.src, r.cl.cfg.Number, msg.Type, msg.edge, obs.FlowEnd, t0)
	_ = w.srcHeap.Free(w.off)
	if derr != nil {
		// Unreachable for run-time-encoded messages; surface loudly rather
		// than lose traffic silently if the codec and router ever disagree.
		_ = r.cl.heap.Free(w.destOff)
		vm.userPrintf("pisces: router cluster %d: corrupt wire message %s from %s: %v\n",
			r.cl.cfg.Number, msg.Type, msg.Sender, derr)
		msg.reply.deliver(NilTask)
		recycleMessage(msg)
		return
	}
	// The destination-shard storage was reserved at send time; the message
	// just takes ownership of it here.
	msg.Args = args
	msg.heapOff, msg.heapBytes, msg.heapShard = w.destOff, w.size, r.cl.heap
	vm.enqueue(w.dest, msg, true)
}

// flushRouters blocks until every wire message enqueued before the call has
// been delivered, by pushing a flush token through each router's queue.
func (vm *VM) flushRouters() {
	for _, r := range vm.routers {
		g := vm.backend.NewGate()
		if r.flush(g) {
			g.Wait()
		}
	}
}

// stop drains the router and waits for its task to exit.  Pending wire
// messages are still delivered (or their storage recovered) before the task
// returns, so shutdown leaves every heap shard empty of in-flight traffic.
func (r *clusterRouter) stop() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.wake.Pulse()
	r.done.Wait()
}
