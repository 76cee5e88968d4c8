package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/memory"
	"repro/internal/msgcodec"
	"repro/internal/obs"
)

// The message path.
//
// "TO <taskid> SEND" means the same thing wherever the receiver runs, and
// each step of a message's life exists once, here:
//
//   - send picks the hop: the same-cluster queue, a router lane to another
//     cluster hosted in this process, or the remote wire;
//   - encodeOut is the sending half of both routed hops: the argument list
//     is codec-encoded into the sending cluster's heap shard;
//   - decodeIn is the receiving half of both;
//   - enqueue is the tail every charged message takes into an in-queue;
//   - emitSend and emitDeliver feed the flight recorder, spans and causal
//     flows for the routed hops.
//
// Callers keep their own error mapping: a task's SEND may be suppressed by
// HA replay, a run-time message reports ErrNoSuchTask.

// hop is how a message reaches its receiver.
type hop uint8

const (
	// hopQueue: the receiver shares the sender's cluster (or the sender is
	// the execution environment); the message is charged to that cluster's
	// shard and queued directly.
	hopQueue hop = iota
	// hopLane: another cluster hosted by this VM; the message travels as
	// wire bytes through the destination's router lane (router.go).
	hopLane
	// hopWire: a cluster hosted elsewhere, or any cross-cluster hop under
	// InterceptWire; the message is handed to the remote Transport.
	hopWire
)

// errNotRunning is send's verdict for a destination task that is not
// running.  It never leaves the package: callers map it to ErrNoSuchTask or,
// for a replayed HA send, to success.
var errNotRunning = errors.New("core: destination task not running")

// send moves msg from cluster from (nil when the sender is the execution
// environment) to the task dest, and takes ownership of the message header.
// It returns the charged packet-model size and the hop taken.
func (vm *VM) send(from *clusterRT, dest TaskID, msg *Message) (int, hop, error) {
	if vm.wireRemote(from, dest.Cluster) {
		// Under InterceptWire the destination is still hosted here, so keep
		// the direct path's error contract: a send to a task that is not
		// running fails at the sender even though delivery is delayed.
		if vm.hosts(dest.Cluster) {
			if _, ok := vm.lookupTask(dest); !ok {
				recycleMessage(msg)
				return 0, hopWire, errNotRunning
			}
		}
		size, err := vm.routeRemote(from, dest, msg)
		return size, hopWire, err
	}
	rec, ok := vm.lookupTask(dest)
	if !ok {
		recycleMessage(msg)
		return 0, hopQueue, errNotRunning
	}
	if from != nil && rec.cluster != from {
		size, err := vm.routeMessage(from, rec, msg)
		return size, hopLane, err
	}
	if err := vm.chargeMessageOn(rec.cluster.heap, msg); err != nil {
		recycleMessage(msg)
		return 0, hopQueue, err
	}
	// Snapshot the size before delivery: once the message is in the
	// receiver's in-queue it may be accepted (and its heap storage released)
	// concurrently with the rest of this send.
	size := msg.heapBytes
	if !vm.enqueue(rec, msg, false) {
		return 0, hopQueue, errNotRunning
	}
	return size, hopQueue, nil
}

// deliverSystem delivers a run-time message (an initiate request, a message
// from the user at the terminal) to the destination task.  from is the
// sending task's cluster, or nil when the sender is the execution
// environment.  The message header is consumed; the caller must not reuse it.
func (vm *VM) deliverSystem(from *clusterRT, dest TaskID, msg *Message) error {
	if _, _, err := vm.send(from, dest, msg); err != nil {
		if errors.Is(err, errNotRunning) {
			return fmt.Errorf("%w: %s", ErrNoSuchTask, dest)
		}
		return err
	}
	return nil
}

// packets is the number of argument packets in a message of the given
// charged size: "messages consist of a header and a list of packets
// containing the arguments" (Section 11).
func packets(size int) int { return (size - msgcodec.HeaderBytes) / msgcodec.PacketBytes }

// encodeOut is the sending half of both routed hops.  It encodes args into a
// fresh block of the sending shard — or into a plain buffer when heap is nil
// (the execution environment owns no shard) — and checks that the wire form
// fits the packet-model size, which it always should: a packet holds more
// than an argument's wire overhead.  off is the block's offset, -1 when
// nothing was allocated; size is the charged packet-model size.
func (vm *VM) encodeOut(heap *memory.Allocator, msgType string, args []Value) (wire []byte, off, size int, err error) {
	size, err = encodedSize(args)
	if err != nil {
		return nil, -1, 0, err
	}
	off = -1
	var buf []byte
	if heap != nil {
		if off, err = heap.Alloc(size); err != nil {
			return nil, -1, 0, vm.heapErr(err)
		}
		buf = heap.Bytes(off, size)[:0]
	} else {
		buf = make([]byte, 0, size)
	}
	var t0 time.Time
	if vm.metricsOn() {
		t0 = vm.om.reg.Now()
	}
	wire, err = msgcodec.AppendEncode(buf, args)
	if !t0.IsZero() {
		vm.om.encodeNS.ObserveDuration(vm.om.reg.Now().Sub(t0))
	}
	if err == nil && len(wire) > size {
		err = fmt.Errorf("core: wire form of %s (%d bytes) exceeds its packet-model size %d", msgType, len(wire), size)
	}
	if err != nil {
		if off >= 0 {
			_ = heap.Free(off)
		}
		return nil, -1, 0, err
	}
	return wire, off, size, nil
}

// decodeIn is the receiving half of both routed hops: it decodes one payload
// into argument values, timing the decode into codec.decode.ns.  t0, set
// when metrics or spans are on, is when delivery began.
func (vm *VM) decodeIn(payload []byte) (args []Value, t0 time.Time, err error) {
	metrics := vm.metricsOn()
	if metrics || vm.spansOn() {
		t0 = vm.om.reg.Now()
	}
	args, err = msgcodec.Decode(payload)
	if metrics {
		vm.om.decodeNS.ObserveDuration(vm.om.reg.Now().Sub(t0))
	}
	return args, t0, err
}

// enqueue is the tail every charged message takes into its receiver's
// in-queue.  A routed message first charges its transfer to the destination
// cluster's primary PE clock without occupying its CPU: the inter-cluster
// copy is bus (or network) work, not receiver computation.  A message the
// queue does not admit has its storage recovered and its header recycled:
// an HA duplicate was delivered in a previous life, and a closed queue means
// the receiver terminated, so the message is dropped like any message
// queued at termination and an initiate request fails its reply.  enqueue
// reports false for a closed queue.
func (vm *VM) enqueue(rec *taskRec, msg *Message, routed bool) bool {
	if routed {
		rec.cluster.primary.Charge(int64(costRouteMsg + costSendPacket*packets(msg.heapBytes)))
	}
	res := rec.queue.put(msg)
	if res == putOK {
		return true
	}
	reply := msg.reply
	vm.releaseMessage(msg)
	recycleMessage(msg)
	if res == putDup {
		return true
	}
	reply.deliver(NilTask)
	return false
}

// spanStart is the start time of a span about to be measured, zero when
// spans are off.
func (vm *VM) spanStart() time.Time {
	if vm.spansOn() {
		return vm.om.reg.Now()
	}
	return time.Time{}
}

// emitSend records the sending half of one routed message: the flight
// recorder's EvSend (B is the destination cluster, -1 for a broadcast
// fan-out) and, when t0 is set, a send span on lane send/c<src> that the
// causal flow starts inside.
func (vm *VM) emitSend(src, dst int, edge uint64, msgType string, t0 time.Time) {
	vm.om.rec.Record(src, msgcodec.EvSend, edge, int64(src), int64(dst))
	if t0.IsZero() {
		return
	}
	lane := fmt.Sprintf("send/c%d", src)
	vm.om.reg.Span(lane, "send "+msgType, t0)
	vm.om.reg.Flow(edge, lane, obs.FlowStart, t0)
}

// emitDeliver records the receiving half of one routed message when spans
// are on: a deliver span on the destination's router lane —
// router/c<src>->c<dst>, or router/c<dst><-wire when src is 0 (cluster
// numbers start at 1) — and the causal flow's end or step inside it.
func (vm *VM) emitDeliver(src, dst int, msgType string, edge uint64, phase byte, t0 time.Time) {
	if t0.IsZero() || !vm.spansOn() {
		return
	}
	lane := fmt.Sprintf("router/c%d->c%d", src, dst)
	if src == 0 {
		lane = fmt.Sprintf("router/c%d<-wire", dst)
	}
	vm.om.reg.Span(lane, "deliver "+msgType, t0)
	vm.om.reg.Flow(edge, lane, phase, t0)
}
