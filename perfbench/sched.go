package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// kind is the request shape of one open-loop arrival.
type kind int

const (
	warmSolve kind = iota // solve on a registered hot-set matrix
	coldSolve             // upload a new matrix, then solve on it
	deleteOld             // delete the oldest finished cold matrix
)

// arrival is one request of an open-loop schedule.
type arrival struct {
	due  time.Duration // offset from the start of the run
	kind kind
	mat  int   // hot-set index (warm: 0 is the most popular; cold: the base)
	seed int64 // seeds the request's right-hand side and perturbation
}

// mix sets the request shapes of a schedule: every coldEvery-th arrival
// is a cold solve on a perturbed copy of one of the coldBases (hot-set
// indices, taken in turn), and the arrival half that many after it
// deletes a cold matrix; the rest are warm. coldEvery 0 means no cold
// solves or deletes. A fixed pattern (not an independent draw per
// arrival) keeps the number of cold requests the same from seed to seed.
type mix struct {
	coldEvery int
	coldBases []int
}

// zipfS is the skew of the hot-set popularity: with ten matrices the most
// popular one draws about 40% of the warm requests.
const zipfS = 1.2

// zipfDeck returns deckSize hot-set indices in which index k appears in
// proportion to 1/(k+1)^zipfS. Warm requests draw from shuffled copies of
// the deck, so every run sends each matrix the same share of requests and
// only the order and the arrival times change with the seed.
func zipfDeck(hot int) []int {
	const deckSize = 100
	w := make([]float64, hot)
	var sum float64
	for k := range w {
		w[k] = math.Pow(float64(k+1), -zipfS)
		sum += w[k]
	}
	// Largest remainder rounding to exactly deckSize cards.
	type share struct {
		k    int
		frac float64
	}
	var deck []int
	var rest []share
	for k := range w {
		x := w[k] / sum * deckSize
		for i := 0; i < int(x); i++ {
			deck = append(deck, k)
		}
		rest = append(rest, share{k, x - math.Floor(x)})
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].frac > rest[j].frac })
	for i := 0; len(deck) < deckSize; i++ {
		deck = append(deck, rest[i].k)
	}
	return deck
}

// schedule draws a Poisson arrival stream at rate requests per second for
// dur. Shapes follow m; warm requests pick a hot-set matrix from shuffled
// Zipf decks (zipfDeck). The same arguments give the same schedule.
func schedule(seed int64, rate float64, dur time.Duration, m mix, hot int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	deck := zipfDeck(hot)
	var draw []int
	var out []arrival
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		a := arrival{due: time.Duration(t * float64(time.Second)), seed: rng.Int63()}
		i := len(out)
		switch {
		case m.coldEvery > 0 && i%m.coldEvery == 0:
			a.kind = coldSolve
			a.mat = m.coldBases[i/m.coldEvery%len(m.coldBases)]
		case m.coldEvery > 0 && i%m.coldEvery == m.coldEvery/2:
			a.kind = deleteOld
		default:
			if len(draw) == 0 {
				draw = append(draw, deck...)
				rng.Shuffle(len(draw), func(i, j int) { draw[i], draw[j] = draw[j], draw[i] })
			}
			a.kind = warmSolve
			a.mat, draw = draw[0], draw[1:]
		}
		out = append(out, a)
	}
	return out
}

// runOpenLoop sends every arrival at its due time, start + a.due, whether
// or not earlier requests have finished, and waits for all of them. do
// receives the due time so latency is measured from it; a request the
// system stalls is charged the wait it imposed. The returned slice holds
// each dispatch's lateness (dispatch time minus due time) in ms: how far
// the generator itself fell behind.
func runOpenLoop(start time.Time, sched []arrival, do func(a arrival, due time.Time)) []float64 {
	late := make([]float64, 0, len(sched))
	var wg sync.WaitGroup
	for _, a := range sched {
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = append(late, ms(time.Since(due)))
		wg.Add(1)
		go func(a arrival, due time.Time) {
			defer wg.Done()
			do(a, due)
		}(a, due)
	}
	wg.Wait()
	return late
}
