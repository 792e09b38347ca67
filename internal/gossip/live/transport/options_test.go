package transport

import (
	"testing"
	"time"
)

// TestNewTCPOptionsMatchLoopbackHelper pins the option-style
// constructor against the loopback helper it generalizes: the same
// group layout, every group bound locally.
func TestNewTCPOptionsMatchLoopbackHelper(t *testing.T) {
	a, err := NewTCPLoopback(100, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCP(WithLoopbackGroups(100, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.BatchGroups() != b.BatchGroups() {
		t.Fatalf("group counts differ: %d vs %d", a.BatchGroups(), b.BatchGroups())
	}
	for g := 0; g < a.BatchGroups(); g++ {
		alo, ahi := a.BatchGroup(g)
		blo, bhi := b.BatchGroup(g)
		if alo != blo || ahi != bhi {
			t.Errorf("group %d: [%d,%d) vs [%d,%d)", g, alo, ahi, blo, bhi)
		}
		if b.GroupAddr(g) == "" {
			t.Errorf("group %d not bound locally", g)
		}
	}
}

// TestNewTCPAcceptsConfigAsOption pins the compatibility bridge: a
// whole TCPConfig value is itself an option, so pre-options call sites
// `NewTCP(cfg)` keep compiling and behaving.
func TestNewTCPAcceptsConfigAsOption(t *testing.T) {
	cfg := TCPConfig{
		Groups: []Group{{Lo: 0, Hi: 8, Addr: "127.0.0.1:0"}, {Lo: 8, Hi: 16, Addr: "127.0.0.1:0"}},
		Local:  []int{0, 1},
	}
	a, err := NewTCP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if got := a.BatchGroups(); got != 2 {
		t.Fatalf("BatchGroups = %d, want 2", got)
	}
	// Options compose over a config base: an explicit queue capacity
	// layered on top must not disturb the group layout.
	b, err := NewTCP(cfg, WithQueueCapacity(32))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if lo, hi := b.BatchGroup(1); lo != 8 || hi != 16 {
		t.Errorf("BatchGroup(1) = [%d,%d), want [8,16)", lo, hi)
	}
}

// TestNewTCPValidation pins the constructor's guard rails through the
// option path.
func TestNewTCPValidation(t *testing.T) {
	if _, err := NewTCP(); err == nil {
		t.Error("NewTCP with no groups accepted")
	}
	if _, err := NewTCP(WithGroups(Group{Lo: 0, Hi: 8})); err == nil {
		t.Error("NewTCP with no local group accepted")
	}
	if _, err := NewTCPLoopback(0, 1, 0); err == nil {
		t.Error("NewTCPLoopback with no hosts accepted")
	}
}

// TestNewLossyOptions pins the lossy constructor: nil inner and
// out-of-range probabilities are rejected, and WithProfile installs
// the preset's full loss/delay/jitter triple.
func TestNewLossyOptions(t *testing.T) {
	if _, err := NewLossy(nil, WithLoss(0.1)); err == nil {
		t.Error("nil inner transport accepted")
	}
	ch := NewChannel(4, 0)
	if _, err := NewLossy(ch, WithLoss(1.5)); err == nil {
		t.Error("loss probability 1.5 accepted")
	}
	l, err := NewLossy(ch, WithProfile(Profile3G), WithLossSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if l.P != Profile3G.Loss || l.Delay != Profile3G.Delay || l.Jitter != Profile3G.Jitter {
		t.Errorf("profile not applied: P=%v Delay=%v Jitter=%v, want %+v",
			l.P, l.Delay, l.Jitter, Profile3G)
	}
	if l.Seed != 42 {
		t.Errorf("Seed = %d, want 42", l.Seed)
	}
	m, err := NewLossy(ch, WithLoss(0.25), WithDelay(2*time.Millisecond, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if m.P != 0.25 || m.Delay != 2*time.Millisecond || m.Jitter != time.Millisecond {
		t.Errorf("options not applied: P=%v Delay=%v Jitter=%v", m.P, m.Delay, m.Jitter)
	}
}
