package control

import (
	"sync"
	"sync/atomic"

	"agingmf/internal/obs"
)

// Subscription is one consumer's bounded alert queue. Alerts are
// delivered on C until Cancel (or the bus closing) closes it. A consumer
// that falls behind loses alerts — counted by Dropped and the
// agingmf_alert_drops_total{sink} metric — rather than ever
// backpressuring the publisher's hot path.
type Subscription struct {
	name    string
	ch      chan Alert
	bus     *Bus
	dropped atomic.Uint64
	drops   []*obs.Counter
	once    sync.Once
}

// C returns the delivery channel.
func (s *Subscription) C() <-chan Alert { return s.ch }

// Name returns the sink name given at Subscribe.
func (s *Subscription) Name() string { return s.name }

// Dropped returns how many alerts this subscriber lost to a full queue.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Cancel unsubscribes and closes the delivery channel. Idempotent; safe
// to race the bus closing.
func (s *Subscription) Cancel() {
	s.bus.unsubscribe(s)
}

// Bus fans alerts out to subscribers and keeps a bounded ring of the
// most recent alerts for the HTTP API. Publishing never blocks.
type Bus struct {
	dropVecs []*obs.CounterVec

	mu     sync.Mutex
	subs   map[*Subscription]struct{}
	ring   []Alert
	next   int
	filled bool
	total  uint64
	closed bool
}

// NewBus builds a bus with the given ring capacity. Each dropVec is a
// per-sink drop-counter family: every Subscribe registers a child
// labeled with the sink name on each of them. Nil vecs are allowed and
// cost nothing (the obs instruments are nil-safe).
func NewBus(ringSize int, dropVecs ...*obs.CounterVec) *Bus {
	return &Bus{
		dropVecs: dropVecs,
		subs:     make(map[*Subscription]struct{}),
		ring:     make([]Alert, ringSize),
	}
}

// Subscribe registers a consumer with a queue of buf alerts (minimum 1).
// The name labels this sink's drop metrics.
func (b *Bus) Subscribe(name string, buf int) *Subscription {
	if buf < 1 {
		buf = 1
	}
	s := &Subscription{
		name: name,
		ch:   make(chan Alert, buf),
		bus:  b,
	}
	for _, v := range b.dropVecs {
		s.drops = append(s.drops, v.With(name))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		close(s.ch)
		return s
	}
	b.subs[s] = struct{}{}
	return s
}

// unsubscribe removes s and closes its channel (once).
func (b *Bus) unsubscribe(s *Subscription) {
	b.mu.Lock()
	_, live := b.subs[s]
	delete(b.subs, s)
	b.mu.Unlock()
	if live {
		s.once.Do(func() { close(s.ch) })
	}
}

// Publish records a in the ring and offers it to every subscriber,
// dropping (and counting) on full queues.
func (b *Bus) Publish(a Alert) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.total++
	if len(b.ring) > 0 {
		b.ring[b.next] = a
		b.next++
		if b.next == len(b.ring) {
			b.next = 0
			b.filled = true
		}
	}
	for s := range b.subs {
		select {
		case s.ch <- a:
		default:
			s.dropped.Add(1)
			for _, c := range s.drops {
				c.Inc()
			}
		}
	}
}

// Total returns how many alerts have been published.
func (b *Bus) Total() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// Recent returns up to n of the most recent alerts, oldest first. n <= 0
// returns the whole retained ring.
func (b *Bus) Recent(n int) []Alert {
	b.mu.Lock()
	defer b.mu.Unlock()
	size := b.next
	if b.filled {
		size = len(b.ring)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]Alert, 0, n)
	// Walk the ring from oldest to newest, keeping the last n.
	start := 0
	if b.filled {
		start = b.next
	}
	for i := 0; i < size; i++ {
		out = append(out, b.ring[(start+i)%len(b.ring)])
	}
	return out[len(out)-n:]
}

// Close drops every subscriber (closing their channels) and stops
// accepting publishes. Idempotent.
func (b *Bus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := make([]*Subscription, 0, len(b.subs))
	for s := range b.subs {
		subs = append(subs, s)
	}
	b.subs = make(map[*Subscription]struct{})
	b.mu.Unlock()
	for _, s := range subs {
		s.once.Do(func() { close(s.ch) })
	}
}
