package main

import (
	"math/rand"

	"repro/internal/matrix"
	"repro/internal/serve"
)

// Request mixes. Each is dealt from a fixed deck that is reshuffled every
// len(deck) requests, and every choice within a kind (which hot key,
// which base, which fresh shape) is dealt the same way, so every run has
// the same composition and the seed only changes the order and the
// matrices.

// dealer deals 0..n-1 in a fresh random order every n deals.
type dealer struct {
	order []int
	next  int
}

func newDealer(n int) *dealer {
	d := &dealer{order: make([]int, n)}
	for i := range d.order {
		d.order[i] = i
	}
	return d
}

func (d *dealer) deal(rng *rand.Rand) int {
	if d.next == 0 {
		rng.Shuffle(len(d.order), func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
	}
	v := d.order[d.next]
	d.next = (d.next + 1) % len(d.order)
	return v
}

// smallStream is serve-small's mix: orders 24/40/64 weighted 5:3:2, and
// 25% exact duplicates of one of the last few distinct requests.
func smallStream(rng *rand.Rand, n int) []request {
	var deck []int // orders; 0 is a duplicate
	for _, e := range [][2]int{{0, 10}, {24, 15}, {40, 9}, {64, 6}} {
		for c := 0; c < e[1]; c++ {
			deck = append(deck, e[0])
		}
	}
	out := make([]request, 0, n)
	var fresh []int
	for len(out) < n {
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for _, order := range deck {
			if len(out) == n {
				break
			}
			if order == 0 && len(fresh) > 0 {
				r := out[fresh[len(fresh)-1-rng.Intn(min(4, len(fresh)))]]
				r.kind = "dup"
				out = append(out, r)
				continue
			}
			if order == 0 {
				order = 24 // nothing to repeat yet
			}
			fresh = append(fresh, len(out))
			out = append(out, request{path: "/invert", order: order, seed: rng.Int63(), kind: "fresh"})
		}
	}
	return out
}

// deltaStream is serve-delta's mix over square orders 128 and 256 on
// /invert and tall 512x16 on /lstsq: six hot keys (three of n=128, one
// of n=256, two tall) take 50% of the requests, rank-4 row mutations of
// a square hot key sent with an X-Base-Digest hint 40%, duplicates of a
// recent mutation or fresh request 5%, and fresh requests 5%, a third
// each of n=128, n=256 and 512x16. Fresh n=256 requests, the slowest
// class, are then about 1.7% of the traffic, so the p99 tail falls inside
// that class rather than on its edge, where it would jump between runs.
func deltaStream(rng *rand.Rand, n int) []request {
	const rank = 4
	tall := func() request {
		return request{path: "/lstsq", a: uniform(rng, 512, 16), b: uniform(rng, 512, 1)}
	}
	square := func(order int) request {
		return request{path: "/invert", a: dominant(rng, order)}
	}
	hot := []request{square(128), square(128), square(128), square(256), tall(), tall()}
	hints := make([]string, 4)
	for i := range hints {
		a := hot[i].a
		hints[i] = serve.KeyFor(serve.Request{A: matrix.NewFromData(a.rows, a.cols, a.data)}, servingOptions())
	}
	// Deck symbols: 'h' hot, 'm' mutation, 'd' duplicate, 'f' fresh.
	deck := []byte("hhhhhhhhhhmmmmmmmmdf")
	hotKeys, bases, shapes := newDealer(len(hot)), newDealer(len(hints)), newDealer(3)
	out := make([]request, 0, n)
	var recent []int
	for len(out) < n {
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for _, sym := range deck {
			if len(out) == n {
				break
			}
			var r request
			switch {
			case sym == 'h':
				r = hot[hotKeys.deal(rng)]
				r.kind = "hot"
			case sym == 'm':
				k := bases.deal(rng)
				p := newPatch(rng, hot[k].a.rows, rank)
				r = request{path: "/invert", a: hot[k].a, patch: &p, hint: hints[k], kind: "delta"}
				recent = append(recent, len(out))
			case sym == 'd' && len(recent) > 0:
				r = out[recent[len(recent)-1-rng.Intn(min(4, len(recent)))]]
				r.kind = "dup"
			default: // fresh, or a duplicate with nothing to repeat yet
				switch shapes.deal(rng) {
				case 0:
					r = square(128)
				case 1:
					r = square(256)
				default:
					r = tall()
				}
				r.kind = "fresh"
				recent = append(recent, len(out))
			}
			out = append(out, r)
		}
	}
	return out
}
