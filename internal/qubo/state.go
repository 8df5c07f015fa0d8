package qubo

import "math/rand"

// State is a mutable variable assignment for a Model with an incrementally
// maintained flat delta array: delta[i] = (1−2x_i)·field_i where
// field_i = c_ii + Σ_j c_ij·x_j, i.e. the energy change of flipping
// variable i. Keeping the deltas themselves — rather than the raw local
// fields annealing hardware stores — means the annealers' candidate scans
// reduce to tight loops over one contiguous float64 slice (see SelectBelow)
// and the acceptance test is a single array read. A flip updates the array
// with one branch-free signed addition per neighbour: O(degree) through the
// adjacency lists of a sparse model, or one streamed pass over the coupling
// row of a dense one. This is the data structure behind both the classical
// SA baseline and the Digital Annealer simulator's parallel trial step.
type State struct {
	m *Model
	x []int8
	// xsign[i] = 1−2x_i as a float64 (+1 when x_i = 0, −1 when x_i = 1),
	// kept alongside x so neighbour delta updates multiply instead of
	// branching on the neighbour's bit.
	xsign []float64
	// delta[i] caches DeltaEnergy(i); a flip of i negates delta[i] and
	// adjusts each neighbour j by xsign[i]·c_ij·xsign[j].
	delta  []float64
	energy float64
}

// NewState returns the all-zero state of m (energy 0 by construction, since
// constants are dropped at build time).
func NewState(m *Model) *State {
	s := &State{m: m, x: make([]int8, m.n), xsign: make([]float64, m.n), delta: make([]float64, m.n)}
	for i := range s.xsign {
		s.xsign[i] = 1
	}
	copy(s.delta, m.linear) // x ≡ 0 ⇒ delta[i] = field[i] = linear[i]
	return s
}

// NewRandomState returns a uniformly random state of m drawn from rng.
func NewRandomState(m *Model, rng *rand.Rand) *State {
	s := NewState(m)
	for i := 0; i < m.n; i++ {
		if rng.Intn(2) == 1 {
			s.Flip(i)
		}
	}
	return s
}

// Reset sets every variable of s to the given assignment, recomputing
// deltas and energy from scratch.
func (s *State) Reset(x []int8) {
	if len(x) != s.m.n {
		panic("qubo: reset with wrong state length")
	}
	copy(s.x, x)
	copy(s.delta, s.m.linear)
	for _, t := range s.m.terms {
		if s.x[t.J] != 0 {
			s.delta[t.I] += t.Coeff
		}
		if s.x[t.I] != 0 {
			s.delta[t.J] += t.Coeff
		}
	}
	for i := range s.delta {
		if s.x[i] != 0 {
			s.xsign[i] = -1
			s.delta[i] = -s.delta[i]
		} else {
			s.xsign[i] = 1
		}
	}
	s.energy = s.m.Energy(s.x)
}

// Model returns the model s assigns.
func (s *State) Model() *Model { return s.m }

// Get returns the value of variable i (0 or 1).
func (s *State) Get(i int) int8 { return s.x[i] }

// Assignment returns a copy of the current variable assignment.
func (s *State) Assignment() []int8 {
	out := make([]int8, len(s.x))
	copy(out, s.x)
	return out
}

// Energy returns the current energy f(x), maintained incrementally.
func (s *State) Energy() float64 { return s.energy }

// DeltaEnergy returns the energy change that flipping variable i would
// cause, in O(1) from the maintained delta array.
func (s *State) DeltaEnergy(i int) float64 { return s.delta[i] }

// Deltas exposes the flat per-variable flip deltas. The slice is owned by
// the state and valid only until the next Flip or Reset; callers must not
// modify it. Annealing kernels scan it directly instead of calling
// DeltaEnergy per variable.
func (s *State) Deltas() []float64 { return s.delta }

// CountBelow returns the number of variables whose flip delta is strictly
// below theta — the accepted-candidate count of the Digital Annealer's
// parallel trial step — as one tight pass over the delta array.
func (s *State) CountBelow(theta float64) int {
	count := 0
	for _, d := range s.delta {
		if d < theta {
			count++
		}
	}
	return count
}

// PickKthBelow returns the index of the k-th variable (0-based, ascending
// index order) whose flip delta is strictly below theta, or -1 when fewer
// than k+1 variables qualify. buf[k] of SelectBelow names the same variable.
func (s *State) PickKthBelow(theta float64, k int) int {
	for i, d := range s.delta {
		if d < theta {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return -1
}

// SelectBelow writes the indices of the variables whose flip delta is
// strictly below theta into buf, in ascending order, and returns how many
// there are — the accepted candidates of the Digital Annealer's parallel
// trial step, in one pass over the delta array. buf must hold at least
// NumVariables entries. Every index is written and the cursor advances
// only on a hit, so the loop has no data-dependent branch.
func (s *State) SelectBelow(theta float64, buf []int32) int {
	buf = buf[:len(s.delta)]
	count := 0
	for i, d := range s.delta {
		buf[count] = int32(i)
		if d < theta {
			count++
		}
	}
	return count
}

// Flip toggles variable i, updating energy and neighbour deltas. Field_j
// changes by sign·c_ij and delta_j = xsign_j·field_j, so each neighbour's
// delta gains sign·c_ij·xsign_j. A dense model streams the whole coupling
// row, where absent pairs and the diagonal add a zero; a sparse model
// gathers through the adjacency list.
func (s *State) Flip(i int) {
	d := s.delta[i]
	sign := s.xsign[i]
	s.x[i] ^= 1
	s.xsign[i] = -sign
	s.energy += d
	if m := s.m; m.dense != nil {
		addRow(s.delta, s.xsign, m.dense[i*m.n:(i+1)*m.n], sign)
	} else {
		for _, nb := range m.adj[i] {
			s.delta[nb.j] += sign * nb.coeff * s.xsign[nb.j]
		}
	}
	s.delta[i] = -d
}

// addRow applies delta[j] += sign·row[j]·xsign[j] over a dense coupling
// row. The body is unrolled four ways, which runs the row about a third
// faster than the plain loop; each element sees the same operations in
// the same order either way.
func addRow(delta, xsign, row []float64, sign float64) {
	n := len(row)
	delta, xsign = delta[:n], xsign[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		r, x, d := row[j:j+4:j+4], xsign[j:j+4:j+4], delta[j:j+4:j+4]
		d[0] += sign * r[0] * x[0]
		d[1] += sign * r[1] * x[1]
		d[2] += sign * r[2] * x[2]
		d[3] += sign * r[3] * x[3]
	}
	for ; j < n; j++ {
		delta[j] += sign * row[j] * xsign[j]
	}
}

// Copy returns an independent deep copy of s.
func (s *State) Copy() *State {
	c := &State{
		m:      s.m,
		x:      make([]int8, len(s.x)),
		xsign:  make([]float64, len(s.xsign)),
		delta:  make([]float64, len(s.delta)),
		energy: s.energy,
	}
	copy(c.x, s.x)
	copy(c.xsign, s.xsign)
	copy(c.delta, s.delta)
	return c
}
