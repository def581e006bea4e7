// Package convergence implements the load-balancing convergence theory
// the paper plans to build on for latency bounds ("Xu et al. have
// studied the speed of convergence of various load balancing algorithms.
// We plan to build upon this work to prove latency limits on the
// work-conserving property of our scheduler", §2, citing Xu & Lau,
// *Load Balancing in Parallel Computers: Theory and Practice*, 1996).
//
// It provides the two classical iterative schemes from that line of work
// — nearest-neighbor diffusion and dimension exchange — on the ring and
// the hypercube, the slowest- and fastest-mixing of the standard
// interconnect graphs, plus empirical
// convergence measurement, so the paper's work-stealing rounds can be
// compared against the theory's baselines (experiment E9).
package convergence

import "fmt"

// Graph is an undirected interconnect graph over nodes [0, N).
type Graph struct {
	// N is the node count.
	N int
	// Adj lists each node's neighbors, ascending, no self-loops.
	Adj [][]int
}

// MaxDegree returns the largest node degree.
func (g Graph) MaxDegree() int {
	d := 0
	for _, nbrs := range g.Adj {
		if len(nbrs) > d {
			d = len(nbrs)
		}
	}
	return d
}

// Ring returns the n-node cycle — the slowest-mixing standard topology.
func Ring(n int) Graph {
	if n < 3 {
		panic(fmt.Sprintf("convergence: Ring(%d)", n))
	}
	g := Graph{N: n, Adj: make([][]int, n)}
	for i := 0; i < n; i++ {
		g.Adj[i] = []int{(i + n - 1) % n, (i + 1) % n}
	}
	return g
}

// Hypercube returns the 2^dim-node hypercube, the dimension-exchange
// scheme's native topology.
func Hypercube(dim int) Graph {
	if dim < 1 || dim > 20 {
		panic(fmt.Sprintf("convergence: Hypercube(%d)", dim))
	}
	n := 1 << dim
	g := Graph{N: n, Adj: make([][]int, n)}
	for i := 0; i < n; i++ {
		for d := 0; d < dim; d++ {
			g.Adj[i] = append(g.Adj[i], i^(1<<d))
		}
	}
	return g
}

// DimensionExchangeRound performs one full dimension-exchange sweep on a
// hypercube of the given dimension: for each dimension d in order, every
// node pairs with its d-neighbor and the pair averages (the heavier side
// keeps the odd unit). One sweep reaches exact balance up to integer
// rounding — the classical O(log n) result.
func DimensionExchangeRound(dim int, load []int64) int64 {
	n := 1 << dim
	if len(load) != n {
		panic(fmt.Sprintf("convergence: %d loads for hypercube(%d)", len(load), dim))
	}
	var moved int64
	for d := 0; d < dim; d++ {
		bit := 1 << d
		for i := 0; i < n; i++ {
			j := i ^ bit
			if i > j {
				continue
			}
			sum := load[i] + load[j]
			hi, lo := sum/2+sum%2, sum/2
			var a, b int64
			if load[i] >= load[j] {
				a, b = hi, lo
			} else {
				a, b = lo, hi
			}
			if a != load[i] {
				diff := load[i] - a
				if diff < 0 {
					diff = -diff
				}
				moved += diff
			}
			load[i], load[j] = a, b
		}
	}
	return moved
}

// DiffusionRoundFloat is the real-valued first-order diffusion step —
// the object Xu & Lau's spectral analysis actually bounds (integer
// diffusion stalls at a rounding residue; the real scheme converges
// geometrically at the graph's mixing rate). Every edge moves
// α·(xᵢ−xⱼ) with α = 1/(maxdeg+1).
func DiffusionRoundFloat(g Graph, load []float64) {
	if len(load) != g.N {
		panic(fmt.Sprintf("convergence: %d loads for %d nodes", len(load), g.N))
	}
	alpha := 1.0 / float64(g.MaxDegree()+1)
	delta := make([]float64, g.N)
	for i, nbrs := range g.Adj {
		for _, j := range nbrs {
			if i < j {
				flow := alpha * (load[i] - load[j])
				delta[i] -= flow
				delta[j] += flow
			}
		}
	}
	for i := range load {
		load[i] += delta[i]
	}
}

// ImbalanceFloat returns max(load) − min(load).
func ImbalanceFloat(load []float64) float64 {
	lo, hi := load[0], load[0]
	for _, v := range load[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

// RoundsToFloat iterates step until ImbalanceFloat(load) ≤ tol, up to
// maxRounds (sentinel maxRounds+1 when not reached).
func RoundsToFloat(step func([]float64), load []float64, tol float64, maxRounds int) int {
	for r := 0; r <= maxRounds; r++ {
		if ImbalanceFloat(load) <= tol {
			return r
		}
		step(load)
	}
	return maxRounds + 1
}

// SpikeLoadFloat is SpikeLoad for the real-valued scheme.
func SpikeLoadFloat(n int, total float64) []float64 {
	load := make([]float64, n)
	load[0] = total
	return load
}

// Imbalance returns max(load) − min(load), over Xu & Lau load vectors
// ([]int64) and sched.Machine.Loads thread counts ([]int) alike.
func Imbalance[T int | int64](load []T) T {
	lo, hi := load[0], load[0]
	for _, v := range load[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

// RoundsTo iterates step until Imbalance(load) ≤ tol or step moves
// nothing or maxRounds is hit, returning the rounds taken (maxRounds+1
// when not converged — a sentinel the caller can test).
func RoundsTo(step func([]int64) int64, load []int64, tol int64, maxRounds int) int {
	for r := 0; r <= maxRounds; r++ {
		if Imbalance(load) <= tol {
			return r
		}
		if step(load) == 0 {
			return maxRounds + 1 // stuck above tolerance
		}
	}
	return maxRounds + 1
}
