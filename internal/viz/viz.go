// Package viz implements the visualization technology of paper §8: a
// software volume ray-caster with user-controlled transfer functions,
// simultaneous multivariate rendering by data fusion (figure 14's ξ-iso +
// HO2, ξ-iso + OH, and OH + HO2 composites), isosurface emphasis with
// gradient shading, and the trispace interface components — parallel
// coordinates and time histograms (figure 15) — rendered to PNG images.
package viz

import (
	"image"
	"image/color"
	"image/png"
	"io"
	"math"

	"github.com/s3dgo/s3d/internal/grid"
)

// RGBA is a float colour with opacity in [0, 1].
type RGBA struct{ R, G, B, A float64 }

// ControlPoint anchors a transfer function at a normalised scalar value.
type ControlPoint struct {
	V float64 // normalised [0,1]
	C RGBA
}

// TransferFunc maps a normalised scalar to colour and opacity by piecewise
// linear interpolation of its control points (which must be sorted by V).
type TransferFunc struct {
	Points []ControlPoint
}

// Lookup evaluates the transfer function.
func (t *TransferFunc) Lookup(v float64) RGBA {
	pts := t.Points
	if len(pts) == 0 {
		return RGBA{}
	}
	if v <= pts[0].V {
		return pts[0].C
	}
	for i := 1; i < len(pts); i++ {
		if v <= pts[i].V {
			f := (v - pts[i-1].V) / (pts[i].V - pts[i-1].V)
			a, b := pts[i-1].C, pts[i].C
			return RGBA{
				R: a.R + f*(b.R-a.R),
				G: a.G + f*(b.G-a.G),
				B: a.B + f*(b.B-a.B),
				A: a.A + f*(b.A-a.A),
			}
		}
	}
	return pts[len(pts)-1].C
}

// HotTF returns a "hot metal" emission-style transfer function peaking at
// the high end, suitable for radicals like OH.
func HotTF(maxOpacity float64) *TransferFunc {
	return &TransferFunc{Points: []ControlPoint{
		{0.0, RGBA{0, 0, 0, 0}},
		{0.25, RGBA{0.4, 0, 0, 0.02 * maxOpacity}},
		{0.5, RGBA{0.9, 0.2, 0, 0.2 * maxOpacity}},
		{0.75, RGBA{1, 0.7, 0, 0.6 * maxOpacity}},
		{1.0, RGBA{1, 1, 0.8, maxOpacity}},
	}}
}

// CoolTF returns a blue-green transfer function for a second variable in a
// fused rendering (the HO2 layer of figure 14).
func CoolTF(maxOpacity float64) *TransferFunc {
	return &TransferFunc{Points: []ControlPoint{
		{0.0, RGBA{0, 0, 0, 0}},
		{0.3, RGBA{0, 0.2, 0.5, 0.05 * maxOpacity}},
		{0.6, RGBA{0, 0.6, 0.9, 0.3 * maxOpacity}},
		{1.0, RGBA{0.5, 1, 1, maxOpacity}},
	}}
}

// IsoTF returns a transfer function that is transparent except near the
// normalised iso value — the "mixture fraction isosurface (gold)" device of
// figure 14.
func IsoTF(iso, width float64, c RGBA) *TransferFunc {
	return &TransferFunc{Points: []ControlPoint{
		{0, RGBA{}},
		{clamp01(iso - width), RGBA{}},
		{iso, c},
		{clamp01(iso + width), RGBA{}},
		{1, RGBA{}},
	}}
}

// Layer pairs a field with its transfer function and value range.
type Layer struct {
	Field    *grid.Field3
	TF       *TransferFunc
	Min, Max float64
	Shade    bool // gradient shading (for isosurface layers)
}

// normalized samples the layer at fractional grid coordinates with
// trilinear interpolation, returning the normalised value.
func (l *Layer) normalized(x, y, z float64) float64 {
	v := trilinear(l.Field, x, y, z)
	if l.Max <= l.Min {
		return 0
	}
	return clamp01((v - l.Min) / (l.Max - l.Min))
}

func trilinear(f *grid.Field3, x, y, z float64) float64 {
	i0, j0, k0 := int(math.Floor(x)), int(math.Floor(y)), int(math.Floor(z))
	fx, fy, fz := x-float64(i0), y-float64(j0), z-float64(k0)
	at := func(i, j, k int) float64 {
		if i < 0 {
			i = 0
		}
		if j < 0 {
			j = 0
		}
		if k < 0 {
			k = 0
		}
		if i >= f.Nx {
			i = f.Nx - 1
		}
		if j >= f.Ny {
			j = f.Ny - 1
		}
		if k >= f.Nz {
			k = f.Nz - 1
		}
		return f.At(i, j, k)
	}
	c00 := at(i0, j0, k0)*(1-fx) + at(i0+1, j0, k0)*fx
	c10 := at(i0, j0+1, k0)*(1-fx) + at(i0+1, j0+1, k0)*fx
	c01 := at(i0, j0, k0+1)*(1-fx) + at(i0+1, j0, k0+1)*fx
	c11 := at(i0, j0+1, k0+1)*(1-fx) + at(i0+1, j0+1, k0+1)*fx
	c0 := c00*(1-fy) + c10*fy
	c1 := c01*(1-fy) + c11*fy
	return c0*(1-fz) + c1*fz
}

// Camera orients an orthographic view by azimuth/elevation (radians).
type Camera struct {
	Azimuth, Elevation float64
}

// Renderer ray-casts one or more fused layers over the same mesh.
type Renderer struct {
	Layers        []Layer
	Cam           Camera
	Width, Height int
	Background    RGBA
}

// Render produces the composited image by front-to-back accumulation; at
// each ray sample every layer contributes its own colour and opacity (the
// user-controlled data-fusion scheme of §8.1).
func (r *Renderer) Render() *image.RGBA {
	if len(r.Layers) == 0 {
		return image.NewRGBA(image.Rect(0, 0, r.Width, r.Height))
	}
	f0 := r.Layers[0].Field
	nx, ny, nz := float64(f0.Nx), float64(f0.Ny), float64(f0.Nz)
	img := image.NewRGBA(image.Rect(0, 0, r.Width, r.Height))

	// View basis: ray direction d from azimuth/elevation; u, v span the
	// image plane.
	ca, sa := math.Cos(r.Cam.Azimuth), math.Sin(r.Cam.Azimuth)
	ce, se := math.Cos(r.Cam.Elevation), math.Sin(r.Cam.Elevation)
	d := [3]float64{ca * ce, sa * ce, se}
	up := [3]float64{0, 0, 1}
	if math.Abs(d[2]) > 0.99 {
		up = [3]float64{0, 1, 0}
	}
	u := cross(up, d)
	u = norm3(u)
	v := cross(d, u)

	centre := [3]float64{nx / 2, ny / 2, nz / 2}
	diag := math.Sqrt(nx*nx + ny*ny + nz*nz)
	scale := diag / float64(minInt(r.Width, r.Height)) * 1.05

	for py := 0; py < r.Height; py++ {
		for px := 0; px < r.Width; px++ {
			su := (float64(px) - float64(r.Width)/2) * scale
			sv := (float64(py) - float64(r.Height)/2) * scale
			// Ray origin behind the volume.
			var o [3]float64
			for c := 0; c < 3; c++ {
				o[c] = centre[c] + su*u[c] + sv*v[c] - d[c]*diag/2
			}
			col := r.castRay(o, d, diag)
			// Composite over background.
			bg := r.Background
			col.R += (1 - col.A) * bg.R
			col.G += (1 - col.A) * bg.G
			col.B += (1 - col.A) * bg.B
			img.SetRGBA(px, r.Height-1-py, color.RGBA{
				R: uint8(255 * clamp01(col.R)),
				G: uint8(255 * clamp01(col.G)),
				B: uint8(255 * clamp01(col.B)),
				A: 255,
			})
		}
	}
	return img
}

// castRay samples the layers once per cell along the ray.
func (r *Renderer) castRay(o, d [3]float64, length float64) RGBA {
	var acc RGBA
	f0 := r.Layers[0].Field
	n := int(length)
	// Degenerate (size-1) axes carry quasi-2D data: the volume is treated
	// as extruded along them, so rays always intersect (the jet runs of the
	// paper are rendered from such planes during scaled-down reproduction).
	degX, degY, degZ := f0.Nx == 1, f0.Ny == 1, f0.Nz == 1
	for s := 0; s < n && acc.A < 0.98; s++ {
		x := o[0] + d[0]*float64(s)
		y := o[1] + d[1]*float64(s)
		z := o[2] + d[2]*float64(s)
		if degX {
			x = 0
		}
		if degY {
			y = 0
		}
		if degZ {
			z = 0
		}
		if x < 0 || y < 0 || z < 0 || x > float64(f0.Nx-1) || y > float64(f0.Ny-1) || z > float64(f0.Nz-1) {
			continue
		}
		for li := range r.Layers {
			l := &r.Layers[li]
			val := l.normalized(x, y, z)
			c := l.TF.Lookup(val)
			if c.A <= 0 {
				continue
			}
			shade := 1.0
			if l.Shade {
				shade = l.gradientShade(x, y, z, d)
			}
			// Front-to-back "over" compositing.
			w := (1 - acc.A) * c.A
			acc.R += w * c.R * shade
			acc.G += w * c.G * shade
			acc.B += w * c.B * shade
			acc.A += w
		}
	}
	return acc
}

// gradientShade approximates diffuse shading from the field gradient.
func (l *Layer) gradientShade(x, y, z float64, light [3]float64) float64 {
	const h = 1.0
	gx := l.normalized(x+h, y, z) - l.normalized(x-h, y, z)
	gy := l.normalized(x, y+h, z) - l.normalized(x, y-h, z)
	gz := l.normalized(x, y, z+h) - l.normalized(x, y, z-h)
	m := math.Sqrt(gx*gx + gy*gy + gz*gz)
	if m == 0 {
		return 1
	}
	dot := math.Abs(gx*light[0]+gy*light[1]+gz*light[2]) / m
	return 0.35 + 0.65*dot
}

// WritePNG encodes the image.
func WritePNG(w io.Writer, img image.Image) error { return png.Encode(w, img) }

func cross(a, b [3]float64) [3]float64 {
	return [3]float64{
		a[1]*b[2] - a[2]*b[1],
		a[2]*b[0] - a[0]*b[2],
		a[0]*b[1] - a[1]*b[0],
	}
}

func norm3(a [3]float64) [3]float64 {
	m := math.Sqrt(a[0]*a[0] + a[1]*a[1] + a[2]*a[2])
	if m == 0 {
		return a
	}
	return [3]float64{a[0] / m, a[1] / m, a[2] / m}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
