package qubo

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// FuzzReadModel hardens the .qubo parser: any accepted input must produce
// a model that serialises and round-trips to identical energies.
func FuzzReadModel(f *testing.F) {
	f.Add("p qubo 0 3 2 1\n0 0 1\n1 1 -2\n0 2 0.5\n")
	f.Add("c only a comment\n")
	f.Add("p qubo 0 1 0 0\n")
	f.Add("0 0 1\n")
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ReadModel(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteModel(&buf, m); err != nil {
			t.Fatalf("accepted model does not serialise: %v", err)
		}
		back, err := ReadModel(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.NumVariables() != m.NumVariables() {
			t.Fatal("round trip changed variable count")
		}
		x := make([]int8, m.NumVariables())
		for i := range x {
			x[i] = int8(i % 2)
		}
		a, b := m.Energy(x), back.Energy(x)
		diff := a - b
		if diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("round trip changed energy: %v vs %v", a, b)
		}
	})
}

// refState is the adjacency-list flip the dense coupling rows replace, kept
// as the reference FuzzDenseFlipMatchesAdjacency checks the model's own
// layout against. It is rebuilt from Terms() whenever coefficients change.
type refState struct {
	adj    [][]neighbour
	xsign  []float64
	delta  []float64
	energy float64
}

func newRefState(m *Model, x []int8) *refState {
	n := m.NumVariables()
	r := &refState{adj: make([][]neighbour, n), xsign: make([]float64, n), delta: make([]float64, n), energy: m.Energy(x)}
	for i := range r.delta {
		r.delta[i] = m.Linear(i)
	}
	for _, t := range m.Terms() {
		r.adj[t.I] = append(r.adj[t.I], neighbour{j: t.J, coeff: t.Coeff})
		r.adj[t.J] = append(r.adj[t.J], neighbour{j: t.I, coeff: t.Coeff})
		if x[t.J] != 0 {
			r.delta[t.I] += t.Coeff
		}
		if x[t.I] != 0 {
			r.delta[t.J] += t.Coeff
		}
	}
	for i := range r.xsign {
		r.xsign[i] = 1
		if x[i] != 0 {
			r.xsign[i] = -1
			r.delta[i] = -r.delta[i]
		}
	}
	return r
}

func (r *refState) flip(i int) {
	d, sign := r.delta[i], r.xsign[i]
	r.xsign[i] = -sign
	r.energy += d
	r.delta[i] = -d
	for _, nb := range r.adj[i] {
		r.delta[nb.j] += sign * nb.coeff * r.xsign[nb.j]
	}
}

// FuzzDenseFlipMatchesAdjacency drives models just below, exactly at and
// above the dense-layout crossover through random Flip, Reset and Reweight
// sequences (Reweight may set exact-zero coefficients) and requires every
// delta and the energy to equal the adjacency-list reference and a fresh
// Model.Energy, and SelectBelow to agree with CountBelow and PickKthBelow.
// Coefficients are small integers, so every sum is exact and == is the
// right comparison.
func FuzzDenseFlipMatchesAdjacency(f *testing.F) {
	// side%3 picks the density (below, at, above the crossover); side&4
	// builds through a Builder instead of NewModelFromSortedTerms.
	for n := uint8(0); n < 14; n += 3 {
		for _, side := range []uint8{0, 1, 2, 4, 5, 6} {
			f.Add(int64(n)*7+int64(side), n, side, []byte{0, 3, 9, 1, 4, 2, 7, 5, 1, 6, 0, 11})
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, nRaw, side uint8, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw%15)
		pairs := n * (n - 1) / 2
		crossover := (pairs + 1) / 2 // fewest terms with 4·terms ≥ n(n−1)
		var count int
		switch side % 3 {
		case 0: // just below
			count = crossover - 1
		case 1: // exactly at
			count = crossover
		default: // above
			count = crossover + 1 + rng.Intn(pairs-crossover+1)
			count = min(count, pairs)
		}
		coeff := func(zeros bool) float64 {
			c := float64(rng.Intn(9) - 4)
			for c == 0 && !zeros {
				c = float64(rng.Intn(9) - 4)
			}
			return c
		}
		chosen := rng.Perm(pairs)[:count]
		present := make(map[int]bool, count)
		for _, p := range chosen {
			present[p] = true
		}
		linear := make([]float64, n)
		for i := range linear {
			linear[i] = coeff(true)
		}
		var terms []Term
		p := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if present[p] {
					terms = append(terms, Term{I: i, J: j, Coeff: coeff(false)})
				}
				p++
			}
		}
		var m *Model
		if side&4 == 0 {
			m = NewModelFromSortedTerms(linear, terms)
		} else {
			b := NewBuilder(n)
			for i, c := range linear {
				b.AddLinear(i, c)
			}
			for _, tm := range terms {
				b.AddQuadratic(tm.I, tm.J, tm.Coeff)
			}
			m = b.Build()
		}
		if wantDense := 4*count >= n*(n-1); (m.dense != nil) != wantDense || (m.adj != nil) == wantDense {
			t.Fatalf("n=%d terms=%d: dense rows %v, adjacency %v, want dense %v", n, count, m.dense != nil, m.adj != nil, wantDense)
		}
		st := NewRandomState(m, rng)
		ref := newRefState(m, st.Assignment())
		buf := make([]int32, n)
		for step, op := range ops {
			switch op % 8 {
			case 0:
				x := randomAssignment(rng, n)
				st.Reset(x)
				ref = newRefState(m, x)
			case 1:
				lin := make([]float64, n)
				for i := range lin {
					lin[i] = coeff(true)
				}
				cs := make([]float64, m.NumTerms())
				for i := range cs {
					cs[i] = coeff(true)
				}
				m.Reweight(lin, cs)
				st.Reset(st.Assignment())
				ref = newRefState(m, st.Assignment())
			default:
				i := int(op) % n
				st.Flip(i)
				ref.flip(i)
			}
			x := st.Assignment()
			if e := m.Energy(x); st.Energy() != e || ref.energy != e {
				t.Fatalf("step %d: energy %v, reference %v, fresh %v", step, st.Energy(), ref.energy, e)
			}
			for i, d := range st.Deltas() {
				if d != ref.delta[i] {
					t.Fatalf("step %d: delta[%d] = %v, reference %v", step, i, d, ref.delta[i])
				}
				if m.Degree(i) != len(ref.adj[i]) {
					t.Fatalf("Degree(%d) = %d, reference %d", i, m.Degree(i), len(ref.adj[i]))
				}
			}
			theta := float64(rng.Intn(17) - 8)
			got := st.SelectBelow(theta, buf)
			if want := st.CountBelow(theta); got != want {
				t.Fatalf("step %d: SelectBelow(%v) = %d, CountBelow %d", step, theta, got, want)
			}
			for k := 0; k < got; k++ {
				if v := st.PickKthBelow(theta, k); int(buf[k]) != v {
					t.Fatalf("step %d: SelectBelow(%v)[%d] = %d, PickKthBelow %d", step, theta, k, buf[k], v)
				}
			}
		}
	})
}
