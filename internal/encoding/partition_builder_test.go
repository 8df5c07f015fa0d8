package encoding

import "incranneal/internal/qubo"

// encodePartitionScaledBuilder is the original map-backed Ising/Builder
// construction, kept as the reference implementation the CSR fast path is
// tested against bit for bit.
func encodePartitionScaledBuilder(nodeWeights []float64, edges []WeightedEdge, lagrangeScale float64) *PartitionEncoding {
	n := len(nodeWeights)
	lagrange := lagrangeScale * LagrangeMultiplier(n, edges)
	is := qubo.NewIsing(n)
	var sqSum float64
	for _, w := range nodeWeights {
		sqSum += w * w
	}
	is.AddConstant(lagrange * sqSum)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			is.AddCoupling(i, j, 2*lagrange*nodeWeights[i]*nodeWeights[j])
		}
	}
	for _, e := range edges {
		is.AddConstant(e.Weight / 2)
		is.AddCoupling(e.U, e.V, -e.Weight/2)
	}
	return &PartitionEncoding{
		Model:       is.ToQUBO(),
		NodeWeights: append([]float64(nil), nodeWeights...),
		Edges:       append([]WeightedEdge(nil), edges...),
		LagrangeA:   lagrange,
	}
}
