package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// lagUnit is one wire unit (frame or line) of the open-loop phase.
type lagUnit struct {
	// shard is the shard FIFO the unit's source is mapped to.
	shard int
	// need is the shard's committed-sample count, counted from the start
	// of the phase, once this unit has been committed.
	need uint64
	// due is when the schedule says the unit is sent, and sent when the
	// generator handed it to the connection, both from phase start. The
	// difference is the generator's lateness.
	due, sent time.Duration
	// held is the part of that lateness the daemon caused: the unit fell
	// due while an earlier write was blocked on a full socket. It counts
	// as lag; the rest, the generator's timer slack, does not.
	held time.Duration
}

// shardPoll is one scrape of the per-shard committed counters.
type shardPoll struct {
	// at is the midpoint of the scrape's request and response, from phase
	// start: the best estimate of when the daemon read its counters.
	at time.Duration
	// counts are the per-shard committed samples since phase start.
	counts []uint64
}

// unitLags returns each unit's lag and floor. The lag runs from when the
// generator sent the unit, plus the time the daemon held it back, to the
// first poll that shows the unit's shard past the unit's need. Each shard
// is one FIFO goroutine, so a shard count at or past need means every
// earlier unit of that shard is committed too. The floor is what the same
// measurement reads for a commit at the instant of the send: the time
// from the send to the first poll after it, about half a poll interval.
// A daemon that commits every unit d later moves the lag by about d, the
// floor not at all. Units must be in send order, polls in time order.
func unitLags(units []lagUnit, polls []shardPoll) (lags, floors []time.Duration, err error) {
	next := map[int]int{} // per shard: index of the first poll not yet ruled out
	lags = make([]time.Duration, len(units))
	floors = make([]time.Duration, len(units))
	f := 0 // the first poll at or after the current unit's send
	for k, u := range units {
		i := next[u.shard]
		for i < len(polls) && (u.shard >= len(polls[i].counts) || polls[i].counts[u.shard] < u.need) {
			i++
		}
		if i == len(polls) {
			return nil, nil, fmt.Errorf("unit %d (shard %d, need %d) never observed committed", k, u.shard, u.need)
		}
		next[u.shard] = i
		for f < len(polls) && polls[f].at < u.sent {
			f++
		}
		if f == len(polls) {
			return nil, nil, fmt.Errorf("unit %d: no poll after its send", k)
		}
		lags[k] = polls[i].at - u.sent + u.held
		floors[k] = polls[f].at - u.sent
	}
	return lags, floors, nil
}

// tailQuantile is the highest of the 0.99 quantile and the quantile that
// leaves at least ten of n samples beyond it.
func tailQuantile(n int) float64 {
	q := 0.99
	if n > 0 && float64(n)*(1-q) < 10 {
		q = math.Max(0, 1-10/float64(n))
	}
	return q
}

// quantileDur returns the q-quantile (nearest rank) of ds.
func quantileDur(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	k = max(0, min(k, len(s)-1))
	return s[k]
}
