package mpi

import "fmt"

// Cart is an MPI-3-style Cartesian topology over a communicator's ranks:
// the abstraction §4.4 leverages for hierarchical data partitioning.
type Cart struct {
	Comm     *Comm
	Dims     []int
	Periodic []bool
}

// NewCart builds a Cartesian view; the product of dims must equal the
// communicator size.
func NewCart(c *Comm, dims []int, periodic []bool) *Cart {
	if len(dims) == 0 {
		panic("mpi: cart needs at least one dimension")
	}
	prod := 1
	for _, d := range dims {
		if d <= 0 {
			panic("mpi: cart dims must be positive")
		}
		prod *= d
	}
	if prod != c.Size() {
		panic(fmt.Sprintf("mpi: cart %v has %d cells for %d ranks", dims, prod, c.Size()))
	}
	if periodic == nil {
		periodic = make([]bool, len(dims))
	}
	if len(periodic) != len(dims) {
		panic("mpi: periodic length mismatch")
	}
	return &Cart{Comm: c, Dims: append([]int(nil), dims...), Periodic: append([]bool(nil), periodic...)}
}

// Coords returns the grid coordinates of a rank (row-major).
func (ct *Cart) Coords(rank int) []int {
	ct.Comm.checkRank(rank)
	coords := make([]int, len(ct.Dims))
	for i := len(ct.Dims) - 1; i >= 0; i-- {
		coords[i] = rank % ct.Dims[i]
		rank /= ct.Dims[i]
	}
	return coords
}

// Rank returns the rank at the given coordinates.
func (ct *Cart) Rank(coords []int) int {
	if len(coords) != len(ct.Dims) {
		panic("mpi: coordinate dimensionality mismatch")
	}
	rank := 0
	for i, c := range coords {
		if c < 0 || c >= ct.Dims[i] {
			panic(fmt.Sprintf("mpi: coordinate %d out of range in dim %d", c, i))
		}
		rank = rank*ct.Dims[i] + c
	}
	return rank
}

// Shift returns the source and destination ranks for a displacement
// along a dimension (MPI_Cart_shift): -1 where the edge is reached and
// the dimension is not periodic.
func (ct *Cart) Shift(rank, dim, disp int) (src, dst int) {
	coords := ct.Coords(rank)
	move := func(delta int) int {
		c := append([]int(nil), coords...)
		v := c[dim] + delta
		if ct.Periodic[dim] {
			d := ct.Dims[dim]
			v = ((v % d) + d) % d
		} else if v < 0 || v >= ct.Dims[dim] {
			return -1
		}
		c[dim] = v
		return ct.Rank(c)
	}
	return move(-disp), move(disp)
}
