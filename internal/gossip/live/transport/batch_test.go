package transport

import (
	"bytes"
	"math"
	"testing"

	"dynagg/internal/gossip"
)

// TestChannelBatchRoundTrip pins the in-process batch plane: bodies
// come back intact and in order on the group they were sent to, and
// the accounting is per message, not per batch.
func TestChannelBatchRoundTrip(t *testing.T) {
	c := NewChannelGroups(8, 4, 2)
	if got := c.BatchGroups(); got != 2 {
		t.Fatalf("BatchGroups = %d, want 2", got)
	}
	if lo, hi := c.BatchGroup(0); lo != 0 || hi != 4 {
		t.Errorf("BatchGroup(0) = [%d,%d), want [0,4)", lo, hi)
	}
	if lo, hi := c.BatchGroup(1); lo != 4 || hi != 8 {
		t.Errorf("BatchGroup(1) = [%d,%d), want [4,8)", lo, hi)
	}

	if !c.SendBatch(1, 0, 3, []byte("abc")) {
		t.Fatal("SendBatch rejected")
	}
	if !c.SendBatch(1, 0, 2, []byte("de")) {
		t.Fatal("SendBatch rejected")
	}
	if got := c.Sent(); got != 5 {
		t.Errorf("Sent = %d, want 5 (per-message accounting)", got)
	}

	var got [][]byte
	c.DrainBatch(1, func(body []byte) {
		got = append(got, append([]byte(nil), body...))
	})
	if len(got) != 2 || !bytes.Equal(got[0], []byte("abc")) || !bytes.Equal(got[1], []byte("de")) {
		t.Errorf("drained %q, want [abc de]", got)
	}
	c.DrainBatch(0, func([]byte) { t.Error("group 0 received a batch sent to group 1") })
}

// TestChannelBatchOverflowCountsMessages pins the shed path: a full
// batch queue drops the whole batch and charges every message in it
// to Dropped.
func TestChannelBatchOverflowCountsMessages(t *testing.T) {
	c := NewChannelGroups(4, 1, 1) // batch queue capacity 1
	if !c.SendBatch(0, 0, 2, []byte("ok")) {
		t.Fatal("first batch rejected")
	}
	if c.SendBatch(0, 0, 7, []byte("overflow")) {
		t.Fatal("second batch accepted past capacity")
	}
	if got := c.Dropped(); got != 7 {
		t.Errorf("Dropped = %d, want 7 (the shed batch's message count)", got)
	}
	if got := c.Sent(); got != 2 {
		t.Errorf("Sent = %d, want 2", got)
	}
}

// TestChannelBatchBodyIsCopied pins the aliasing contract: SendBatch's
// body is only valid during the call, so the transport must copy —
// mutating the caller's buffer after sending must not corrupt the
// queued batch.
func TestChannelBatchBodyIsCopied(t *testing.T) {
	c := NewChannelGroups(4, 4, 1)
	buf := []byte("before")
	if !c.SendBatch(0, 0, 1, buf) {
		t.Fatal("SendBatch rejected")
	}
	copy(buf, "mangle")
	c.DrainBatch(0, func(body []byte) {
		if !bytes.Equal(body, []byte("before")) {
			t.Errorf("drained %q, want the pre-mutation body", body)
		}
	})
}

// TestChannelBatchOnlyNeverBuildsHostInboxes pins the memory contract
// behind million-host columnar runs: a Channel used only through its
// batch plane must not allocate a buffered inbox per host. The first
// per-message Send builds them.
func TestChannelBatchOnlyNeverBuildsHostInboxes(t *testing.T) {
	c := NewChannelGroups(1<<12, 16, 4)
	for g := 0; g < c.BatchGroups(); g++ {
		if !c.SendBatch(g, 0, 1, []byte("x")) {
			t.Fatalf("SendBatch(%d) rejected", g)
		}
		c.DrainBatch(g, func([]byte) {})
	}
	if c.inbox != nil {
		t.Fatalf("batch-only use built %d per-host inboxes", len(c.inbox))
	}
	if !c.Send(0, 1, 0, "x") {
		t.Fatal("first per-message Send rejected")
	}
	if len(c.inbox) != 1<<12 {
		t.Errorf("per-message Send built %d inboxes, want %d", len(c.inbox), 1<<12)
	}
}

// TestLossyBatchDropRate pins the injector's batch semantics: one loss
// draw per batch, all of its messages charged together, and the
// per-message drop rate converging to P.
func TestLossyBatchDropRate(t *testing.T) {
	const batches, msgsPer, p = 2000, 3, 0.5
	inner := NewChannelGroups(8, 2*batches, 1)
	l, err := NewLossy(inner, WithLoss(p), WithLossSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	body := []byte("xyz")
	for i := 0; i < batches; i++ {
		l.SendBatch(0, i, msgsPer, body)
	}
	total := float64(batches * msgsPer)
	rate := float64(l.Dropped()) / total
	if math.Abs(rate-p) > 0.05 {
		t.Errorf("drop rate %.4f over %d messages, want ≈ %.2f", rate, int(total), p)
	}
	if l.Dropped()%msgsPer != 0 {
		t.Errorf("Dropped = %d, want a multiple of %d (whole batches)", l.Dropped(), msgsPer)
	}
	if got := l.Sent() + l.Dropped(); got != int64(total) {
		t.Errorf("Sent+Dropped = %d, want %d", got, int(total))
	}
}

// TestAsBatcherUnwrapsCapability pins the capability probe: a Lossy
// stack is a Batcher exactly when its inner transport is one.
func TestAsBatcherUnwrapsCapability(t *testing.T) {
	ch := NewChannelGroups(4, 1, 2)
	if _, ok := AsBatcher(ch); !ok {
		t.Error("Channel must expose its batch plane")
	}
	if _, ok := AsBatcher(&Lossy{T: ch, P: 0.1}); !ok {
		t.Error("Lossy over a Batcher must expose the batch plane")
	}
	if _, ok := AsBatcher(&Lossy{T: plainTransport{}, P: 0.1}); ok {
		t.Error("Lossy over a batchless transport must not claim a batch plane")
	}
	if _, ok := AsBatcher(plainTransport{}); ok {
		t.Error("batchless transport must not claim a batch plane")
	}
}

// plainTransport implements Transport and nothing else.
type plainTransport struct{}

func (plainTransport) Send(from, to gossip.NodeID, tick int, payload any) bool { return false }
func (plainTransport) Drain(id gossip.NodeID, fn func(payload any))            {}
func (plainTransport) Sent() int64                                             { return 0 }
func (plainTransport) Dropped() int64                                          { return 0 }
func (plainTransport) Close() error                                            { return nil }
