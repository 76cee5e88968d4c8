package node

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/core"
)

// protoValues draws protocol field values from fuzz bytes; short input reads
// as zeros, so every input yields a full set of values.
type protoValues struct{ b []byte }

func (v *protoValues) u32() uint32 {
	var w [4]byte
	v.b = v.b[copy(w[:], v.b):]
	return binary.BigEndian.Uint32(w[:])
}

func (v *protoValues) u64() uint64 { return uint64(v.u32())<<32 | uint64(v.u32()) }

// i32 is a signed field, the domain of ids the protocol sends as int32.
func (v *protoValues) i32() int { return int(int32(v.u32())) }

func (v *protoValues) bytes() []byte {
	n := min(int(v.u32()%64), len(v.b))
	out := append([]byte(nil), v.b[:n]...)
	v.b = v.b[n:]
	return out
}

func (v *protoValues) taskID() core.TaskID {
	return core.TaskID{Cluster: v.i32(), Slot: v.i32(), Unique: v.i32()}
}

func (v *protoValues) topology() Topology {
	t := Topology{Nodes: int(v.u32()), nodeOf: make(map[int]int)}
	for i := v.u32() % 8; i > 0; i-- {
		c := int(v.u32())
		t.clusters = append(t.clusters, c)
		t.nodeOf[c] = int(v.u32())
	}
	return t
}

func (v *protoValues) wireFrame() *core.WireFrame {
	f := &core.WireFrame{
		Kind: core.FrameMessage, Src: int(v.u32()), Dst: int(v.u32()),
		Dest: v.taskID(), Sender: v.taskID(),
		Seq: v.u64(), SendSeq: v.u64(), ReplyID: v.u64(), Edge: v.u64(),
		Type: string(v.bytes()), Payload: v.bytes(),
	}
	if f.Src%2 == 1 {
		// A broadcast carries no destination task or reply id.
		f.Kind, f.Dest, f.ReplyID = core.FrameBroadcast, core.NilTask, 0
	}
	return f
}

func sameFrame(a, b *core.WireFrame) bool {
	return a.Kind == b.Kind && a.Src == b.Src && a.Dst == b.Dst &&
		a.Dest == b.Dest && a.Sender == b.Sender && a.Seq == b.Seq &&
		a.SendSeq == b.SendSeq && a.ReplyID == b.ReplyID && a.Edge == b.Edge &&
		a.Type == b.Type && bytes.Equal(a.Payload, b.Payload)
}

// FuzzProto checks the node wire protocol from both ends.  Values drawn from
// the input must survive every encoder and its decoder unchanged, and every
// decoder must reject or accept the raw input without panicking: each one
// parses bytes sent by a peer process.
func FuzzProto(f *testing.F) {
	topo, _ := Partition([]int{1, 2, 3}, 2)
	frame := &core.WireFrame{Kind: core.FrameMessage, Src: 1, Dst: 2,
		Dest: core.TaskID{Cluster: 2, Slot: 1, Unique: 5}, Type: "t", Payload: []byte{1}}
	for _, seed := range [][]byte{
		nil,
		encodeHello(hello{version: protoVersion, nodeID: 1, topo: topo}),
		encodeWireFrame(nil, frame),
		encodeInitReply(nil, 9, core.TaskID{Cluster: 1}),
		encodeCredit(4),
		encodeDrain(2),
		encodeDrainAck(drainAck{from: 1, epoch: 2, sent: 3, recv: 4, idle: true, stats: []byte{5}}),
		encodeHeartbeat(1),
		encodeCkpt(1, 2, []byte{3}),
		encodeCkptAck(1, 2),
		encodeCkptMark(1, 2),
		encodeRebalance(fRebalance, 1, 0),
		encodeRestorePlan(2, core.TaskID{Cluster: 1}, 3, core.TaskID{Cluster: 2}),
	} {
		f.Add(seed)
	}
	// Enough non-zero bytes that every drawn value is non-zero.
	pattern := make([]byte, 1024)
	for i := range pattern {
		pattern[i] = byte(i*37 + 11)
	}
	f.Add(pattern)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decoders on arbitrary bytes: an error is fine, a panic is not.
		_, _ = decodeHello(data)
		_, _ = decodeWireFrame(fMsg, data)
		_, _ = decodeWireFrame(fBcast, data)
		_, _ = decodeDataFrameHeader(data)
		_, _, _ = decodeInitReply(data)
		_, _ = decodeCredit(data)
		_, _ = decodeDrain(data)
		_, _ = decodeDrainAck(data)
		_, _ = decodeHeartbeat(data)
		_, _, _, _ = decodeCkpt(data)
		_, _, _ = decodeCkptAck(data)
		_, _, _ = decodeCkptMark(data)
		_, _, _ = decodeRebalance(data)
		_, _, _, _, _ = decodeRestorePlan(data)
		_, _, _ = decodeTopology(data)

		// Encode -> decode identity on values drawn from the input.  Each
		// decoder takes the frame body after the type byte.
		v := &protoValues{b: data}

		h := hello{version: int(v.u32()), nodeID: int(v.u32()), topo: v.topology()}
		copy(h.fingerprint[:], v.bytes())
		if got, err := decodeHello(encodeHello(h)[1:]); err != nil || got.version != h.version ||
			got.nodeID != h.nodeID || got.fingerprint != h.fingerprint || !got.topo.Equal(h.topo) {
			t.Fatalf("hello %+v -> %+v, %v", h, got, err)
		}

		wf := v.wireFrame()
		b := encodeWireFrame(nil, wf)
		if got, err := decodeWireFrame(b[0], b[1:]); err != nil || !sameFrame(got, wf) {
			t.Fatalf("wire frame %+v -> %+v, %v", wf, got, err)
		}
		if got, err := decodeDataFrameHeader(b); err != nil || !sameFrame(got, wf) {
			t.Fatalf("data frame header %+v -> %+v, %v", wf, got, err)
		}

		replyID, id := v.u64(), v.taskID()
		if gr, gid, err := decodeInitReply(encodeInitReply(nil, replyID, id)[1:]); err != nil || gr != replyID || gid != id {
			t.Fatalf("init reply (%d, %v) -> (%d, %v), %v", replyID, id, gr, gid, err)
		}

		n := v.u32()
		if got, err := decodeCredit(encodeCredit(n)[1:]); err != nil || got != n {
			t.Fatalf("credit %d -> %d, %v", n, got, err)
		}
		if got, err := decodeDrain(encodeDrain(n)[1:]); err != nil || got != n {
			t.Fatalf("drain %d -> %d, %v", n, got, err)
		}

		a := drainAck{from: int(v.u32()), epoch: v.u32(), sent: v.u64(), recv: v.u64(),
			idle: v.u32()%2 == 1, stats: v.bytes(), trace: v.bytes()}
		if got, err := decodeDrainAck(encodeDrainAck(a)[1:]); err != nil || got.from != a.from ||
			got.epoch != a.epoch || got.sent != a.sent || got.recv != a.recv || got.idle != a.idle ||
			!bytes.Equal(got.stats, a.stats) || !bytes.Equal(got.trace, a.trace) {
			t.Fatalf("drain ack %+v -> %+v, %v", a, got, err)
		}

		from := v.i32()
		if got, err := decodeHeartbeat(encodeHeartbeat(from)[1:]); err != nil || got != from {
			t.Fatalf("heartbeat %d -> %d, %v", from, got, err)
		}

		epoch, blob := v.u64(), v.bytes()
		if gf, ge, gb, err := decodeCkpt(encodeCkpt(from, epoch, blob)[1:]); err != nil || gf != from || ge != epoch || !bytes.Equal(gb, blob) {
			t.Fatalf("ckpt (%d, %d, %x) -> (%d, %d, %x), %v", from, epoch, blob, gf, ge, gb, err)
		}
		if gf, ge, err := decodeCkptAck(encodeCkptAck(from, epoch)[1:]); err != nil || gf != from || ge != epoch {
			t.Fatalf("ckpt ack (%d, %d) -> (%d, %d), %v", from, epoch, gf, ge, err)
		}
		if gf, gc, err := decodeCkptMark(encodeCkptMark(from, epoch)[1:]); err != nil || gf != from || gc != epoch {
			t.Fatalf("ckpt mark (%d, %d) -> (%d, %d), %v", from, epoch, gf, gc, err)
		}

		dead, buddy := v.i32(), v.i32()
		for _, kind := range []byte{fRebalance, fRebalanceReady} {
			b := encodeRebalance(kind, dead, buddy)
			if gd, gb, err := decodeRebalance(b[1:]); b[0] != kind || err != nil || gd != dead || gb != buddy {
				t.Fatalf("rebalance %#x (%d, %d) -> (%d, %d), %v", kind, dead, buddy, gd, gb, err)
			}
		}

		cluster, parent, seq, rid := v.i32(), v.taskID(), v.u64(), v.taskID()
		if gc, gp, gs, gid, err := decodeRestorePlan(encodeRestorePlan(cluster, parent, seq, rid)[1:]); err != nil ||
			gc != cluster || gp != parent || gs != seq || gid != rid {
			t.Fatalf("restore plan (%d, %v, %d, %v) -> (%d, %v, %d, %v), %v", cluster, parent, seq, rid, gc, gp, gs, gid, err)
		}

		tp := v.topology()
		if got, rest, err := decodeTopology(tp.appendTo(nil)); err != nil || len(rest) != 0 || !got.Equal(tp) {
			t.Fatalf("topology %v -> %v (%d left), %v", tp, got, len(rest), err)
		}
	})
}
