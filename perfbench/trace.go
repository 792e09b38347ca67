package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary.
type span struct {
	name   string
	id     int64
	parent int64 // 0 for a root span
	key    int64 // round, tick or request id
	shard  int64 // first host of a range call, or batch group
	start  int64 // ns since the recorder's epoch
	end    int64
	n      int64 // work the call carried: messages, records, bytes
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// recorder keeps a traced run's spans in memory; writeOut saves them
// when the run ends.
type recorder struct {
	epoch  time.Time
	ids    atomic.Int64
	parent atomic.Int64 // id of the open step span, the parent of layer calls

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now reads the monotonic clock relative to the epoch.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// end closes s, opened at s.start, under the open step span.
func (r *recorder) end(s span) {
	s.id, s.parent, s.end = r.ids.Add(1), r.parent.Load(), r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// open starts a step span that later layer calls hang under; close
// records it. Steps never nest.
func (r *recorder) open() (id, start int64) {
	id = r.ids.Add(1)
	r.parent.Store(id)
	return id, r.now()
}

func (r *recorder) close(name string, id, start, key int64) {
	s := span{name: name, id: id, key: key, start: start, end: r.now()}
	r.parent.Store(0)
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// reset drops every span recorded so far (set-up and warm-up calls).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// named returns the spans called name, in recording order.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations and work counts of the spans called name.
func (r *recorder) total(name string) (d time.Duration, calls, n int64) {
	for _, s := range r.named(name) {
		d += s.dur()
		calls++
		n += s.n
	}
	return d, calls, n
}

// selfTime sums, over the spans called parent, each span's duration
// minus the part of it that its child spans cover. Children running
// concurrently on several shards count once where they overlap.
func (r *recorder) selfTime(parent string) time.Duration {
	r.mu.Lock()
	children := make(map[int64][]span)
	var parents []span
	for _, s := range r.spans {
		if s.name == parent {
			parents = append(parents, s)
		} else if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	r.mu.Unlock()
	var self time.Duration
	for _, p := range parents {
		self += p.dur() - covered(p, children[p.id])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var sum, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.start, p.start), min(k.end, p.end)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s <= curE:
			curE = max(curE, e)
		default:
			sum += curE - curS
			curS, curE = s, e
		}
	}
	if open {
		sum += curE - curS
	}
	return time.Duration(sum)
}

// writeOut saves the spans as tab-separated lines under .bench_build
// and returns the file's path.
func (r *recorder) writeOut(workload string) (string, error) {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tid\tparent\tkey\tshard\tstart_ns\tend_ns\tn")
	r.mu.Lock()
	for _, s := range r.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", s.name, s.id, s.parent, s.key, s.shard, s.start, s.end, s.n)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
