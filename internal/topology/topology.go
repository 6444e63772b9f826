// Package topology models the logical device meshes that intra-layer
// model parallelism partitions over: 1D rings and multi-dimensional
// meshes/tori of accelerator chips, with the per-axis subgroup and
// neighbor arithmetic that collectives and the overlap decomposition
// rely on.
//
// Devices are numbered 0..N-1 in row-major order over the mesh
// coordinates, matching how a compiler lays out logical partition ids.
package topology

import "fmt"

// Mesh is a logical d-dimensional device mesh. On TPU-like systems each
// axis corresponds to a physical torus dimension, so every device has a
// direct bidirectional link to its neighbor (with wraparound) along each
// axis.
type Mesh struct {
	names []string
	dims  []int
}

// New returns a mesh with the given named axis sizes. It panics on
// non-positive dimensions or mismatched name/size counts: mesh layouts
// are static configuration, so a bad one is a programming error.
func New(names []string, dims []int) *Mesh {
	if len(names) != len(dims) || len(dims) == 0 {
		panic(fmt.Sprintf("topology: mesh needs matching axis names %v and dims %v", names, dims))
	}
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("topology: non-positive mesh dimension in %v", dims))
		}
	}
	return &Mesh{
		names: append([]string(nil), names...),
		dims:  append([]int(nil), dims...),
	}
}

// NewRing returns a 1-dimensional mesh of n devices with axis name "x".
func NewRing(n int) *Mesh { return New([]string{"x"}, []int{n}) }

// NewTorus2D returns an m-by-n mesh with axes "x" (slow, size m) and "y"
// (fast, size n).
func NewTorus2D(m, n int) *Mesh { return New([]string{"x", "y"}, []int{m, n}) }

// NewTorus3D returns an l-by-m-by-n mesh with axes "x", "y", "z" — the
// physical topology of a TPU v4 pod slice.
func NewTorus3D(l, m, n int) *Mesh { return New([]string{"x", "y", "z"}, []int{l, m, n}) }

// Rank returns the number of mesh axes.
func (m *Mesh) Rank() int { return len(m.dims) }

// Dim returns the size of the given axis.
func (m *Mesh) Dim(axis int) int { return m.dims[axis] }

// AxisByName returns the index of the named axis, or -1.
func (m *Mesh) AxisByName(name string) int {
	for i, n := range m.names {
		if n == name {
			return i
		}
	}
	return -1
}

// NumDevices returns the total device count.
func (m *Mesh) NumDevices() int {
	n := 1
	for _, d := range m.dims {
		n *= d
	}
	return n
}

// Coord returns the mesh coordinates of a device id.
func (m *Mesh) Coord(device int) []int {
	if device < 0 || device >= m.NumDevices() {
		panic(fmt.Sprintf("topology: device %d out of range for mesh %v", device, m.dims))
	}
	coord := make([]int, len(m.dims))
	for i := len(m.dims) - 1; i >= 0; i-- {
		coord[i] = device % m.dims[i]
		device /= m.dims[i]
	}
	return coord
}

// DeviceAt returns the device id at the given coordinates.
func (m *Mesh) DeviceAt(coord []int) int {
	if len(coord) != len(m.dims) {
		panic(fmt.Sprintf("topology: coordinate rank %d does not match mesh %v", len(coord), m.dims))
	}
	dev := 0
	for i, c := range coord {
		if c < 0 || c >= m.dims[i] {
			panic(fmt.Sprintf("topology: coordinate %v out of range for mesh %v", coord, m.dims))
		}
		dev = dev*m.dims[i] + c
	}
	return dev
}

// AxisStride returns the device-id distance between neighbors along the
// given axis — the Div factor for extracting that axis's coordinate from
// a partition id as (pid / stride) % dim.
func (m *Mesh) AxisStride(axis int) int {
	stride := 1
	for i := axis + 1; i < len(m.dims); i++ {
		stride *= m.dims[i]
	}
	return stride
}

// AxisGroups returns the device groups that vary along the given axis
// with all other coordinates fixed: one group per "line" of the mesh,
// each ordered by the axis coordinate. These are the replica groups of a
// subgroup collective along that axis.
func (m *Mesh) AxisGroups(axis int) [][]int {
	if axis < 0 || axis >= len(m.dims) {
		panic(fmt.Sprintf("topology: axis %d out of range for mesh %v", axis, m.dims))
	}
	var groups [][]int
	others := append([]int(nil), m.dims...)
	others[axis] = 1
	it := make([]int, len(m.dims))
	for {
		group := make([]int, m.dims[axis])
		coord := append([]int(nil), it...)
		for k := 0; k < m.dims[axis]; k++ {
			coord[axis] = k
			group[k] = m.DeviceAt(coord)
		}
		groups = append(groups, group)
		// Advance the iterator over the non-axis coordinates.
		i := len(it) - 1
		for ; i >= 0; i-- {
			it[i]++
			if it[i] < others[i] {
				break
			}
			it[i] = 0
		}
		if i < 0 {
			return groups
		}
	}
}

// ShiftPairs returns the source→target pairs of a cyclic shift by delta
// along the given axis: every device sends to the device whose axis
// coordinate is (own + delta) mod dim. delta = -1 reproduces the paper's
// {0,N-1},{1,0},{2,1},... circular-shift-left pattern on a ring.
func (m *Mesh) ShiftPairs(axis, delta int) [][2]int {
	n := m.NumDevices()
	pairs := make([][2]int, 0, n)
	for dev := 0; dev < n; dev++ {
		coord := m.Coord(dev)
		coord[axis] = mod(coord[axis]+delta, m.dims[axis])
		pairs = append(pairs, [2]int{dev, m.DeviceAt(coord)})
	}
	return pairs
}

// Neighbor returns the device one step (delta = ±1, or any shift) along
// axis from the given device, with wraparound.
func (m *Mesh) Neighbor(device, axis, delta int) int {
	coord := m.Coord(device)
	coord[axis] = mod(coord[axis]+delta, m.dims[axis])
	return m.DeviceAt(coord)
}

// HopDistance returns the minimum number of torus hops between two
// devices: the sum over axes of the wraparound-aware coordinate
// distance.
func (m *Mesh) HopDistance(a, b int) int {
	ca, cb := m.Coord(a), m.Coord(b)
	hops := 0
	for i := range ca {
		d := mod(ca[i]-cb[i], m.dims[i])
		if rev := m.dims[i] - d; rev < d {
			d = rev
		}
		hops += d
	}
	return hops
}

// LinksPerDevice returns the number of bidirectional torus links each
// device has: 2 per axis with size > 2, 1 per axis of size exactly 2,
// and 0 for degenerate size-1 axes.
func (m *Mesh) LinksPerDevice() int {
	links := 0
	for _, d := range m.dims {
		switch {
		case d >= 3:
			links += 2
		case d == 2:
			links++
		}
	}
	return links
}

// String renders the mesh as, e.g., "mesh[x=4,y=8]".
func (m *Mesh) String() string {
	s := "mesh["
	for i := range m.dims {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s=%d", m.names[i], m.dims[i])
	}
	return s + "]"
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}
