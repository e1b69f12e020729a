// Package ekf implements the extended Kalman filter a Loco-Positioning
// Crazyflie uses to estimate its state by fusing IMU accelerations with UWB
// range (TWR) or range-difference (TDoA) measurements, following the
// approach of Mueller et al. (ICRA 2015) cited by the paper (§II-B).
//
// The state is [position(3), velocity(3)]; measurements are processed
// sequentially as scalars, which keeps every update a rank-1 correction and
// avoids matrix inversion entirely.
package ekf

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/mat"
)

const stateDim = 6

// Config tunes the filter.
type Config struct {
	// AccelNoise is the continuous-time accelerometer noise density used
	// to build process noise (m/s² per √Hz, effectively).
	AccelNoise float64
	// InitPosSigmaM and InitVelSigma set the initial covariance.
	InitPosSigmaM, InitVelSigma float64
}

// DefaultConfig returns gains matched to a Crazyflie-class IMU.
func DefaultConfig() Config {
	return Config{
		AccelNoise:    0.8,
		InitPosSigmaM: 1.0,
		InitVelSigma:  0.5,
	}
}

// Filter is the EKF instance. The covariance and the propagation
// scratch are fixed arrays in the filter itself, so Predict and the
// updates allocate nothing.
type Filter struct {
	cfg Config
	x   [stateDim]float64 // px py pz vx vy vz
	// p is the covariance, flat row-major.
	p [stateDim * stateDim]float64
	// f and ft hold the Jacobian F and Fᵀ (identity outside the dt
	// block), fp the product F·P.
	f, ft, fp [stateDim * stateDim]float64
}

// New creates a filter initialised at the given position with zero velocity.
func New(initPos geom.Vec3, cfg Config) (*Filter, error) {
	if cfg.AccelNoise <= 0 {
		return nil, fmt.Errorf("ekf: accel noise must be positive")
	}
	if cfg.InitPosSigmaM <= 0 || cfg.InitVelSigma <= 0 {
		return nil, fmt.Errorf("ekf: initial sigmas must be positive")
	}
	f := &Filter{cfg: cfg}
	f.x[0], f.x[1], f.x[2] = initPos.X, initPos.Y, initPos.Z
	for i := 0; i < 3; i++ {
		f.p[i*stateDim+i] = cfg.InitPosSigmaM * cfg.InitPosSigmaM
		f.p[(i+3)*stateDim+i+3] = cfg.InitVelSigma * cfg.InitVelSigma
	}
	for i := 0; i < stateDim; i++ {
		f.f[i*stateDim+i], f.ft[i*stateDim+i] = 1, 1
	}
	return f, nil
}

// Position returns the position estimate.
func (f *Filter) Position() geom.Vec3 { return geom.V(f.x[0], f.x[1], f.x[2]) }

// Velocity returns the velocity estimate.
func (f *Filter) Velocity() geom.Vec3 { return geom.V(f.x[3], f.x[4], f.x[5]) }

// PositionStdDev returns the marginal standard deviation of each position
// component, a convenient confidence readout.
func (f *Filter) PositionStdDev() geom.Vec3 {
	return geom.V(
		math.Sqrt(math.Max(f.p[0*stateDim+0], 0)),
		math.Sqrt(math.Max(f.p[1*stateDim+1], 0)),
		math.Sqrt(math.Max(f.p[2*stateDim+2], 0)),
	)
}

// Predict propagates the state by dt seconds under the measured body
// acceleration (world frame, gravity-compensated).
func (f *Filter) Predict(accel geom.Vec3, dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("ekf: predict dt must be positive, got %g", dt)
	}
	// Constant-acceleration kinematics.
	ax := [3]float64{accel.X, accel.Y, accel.Z}
	for i := 0; i < 3; i++ {
		f.x[i] += f.x[i+3]*dt + 0.5*ax[i]*dt*dt
		f.x[i+3] += ax[i] * dt
	}
	// Jacobian F = [I, dt·I; 0, I] and its transpose; New set the
	// identity, only the dt block moves.
	for i := 0; i < 3; i++ {
		f.f[i*stateDim+i+3], f.ft[(i+3)*stateDim+i] = dt, dt
	}
	// P ← F·P·Fᵀ + Q, the two products on the shared MatMul kernel.
	mat.MatMul(f.fp[:], f.f[:], f.p[:], stateDim, stateDim, stateDim)
	mat.MatMul(f.p[:], f.fp[:], f.ft[:], stateDim, stateDim, stateDim)
	// Process noise from white acceleration: discrete Wiener-acceleration
	// Q, added over every entry (its zeros included, so a −0 in F·P·Fᵀ
	// comes out +0 as in a full matrix sum).
	q := f.cfg.AccelNoise * f.cfg.AccelNoise
	var qm [stateDim * stateDim]float64
	q11 := q * dt * dt * dt / 3
	q12 := q * dt * dt / 2
	q22 := q * dt
	for i := 0; i < 3; i++ {
		qm[i*stateDim+i] = q11
		qm[i*stateDim+i+3] = q12
		qm[(i+3)*stateDim+i] = q12
		qm[(i+3)*stateDim+i+3] = q22
	}
	mat.VecAdd(f.p[:], qm[:])
	mat.Symmetrize(f.p[:], stateDim)
	return nil
}

// scalarUpdate applies one scalar measurement z = h(x) + v, v~N(0, r), with
// Jacobian row hj.
func (f *Filter) scalarUpdate(innovation float64, hj [stateDim]float64, r float64) {
	// S = H P Hᵀ + r (scalar).
	var ph [stateDim]float64
	for i := 0; i < stateDim; i++ {
		s := 0.0
		for j := 0; j < stateDim; j++ {
			s += f.p[i*stateDim+j] * hj[j]
		}
		ph[i] = s
	}
	s := r
	for i := 0; i < stateDim; i++ {
		s += hj[i] * ph[i]
	}
	if s <= 0 {
		return // degenerate; skip the update rather than diverge
	}
	// K = P Hᵀ / S.
	var k [stateDim]float64
	for i := 0; i < stateDim; i++ {
		k[i] = ph[i] / s
	}
	for i := 0; i < stateDim; i++ {
		f.x[i] += k[i] * innovation
	}
	// P ← (I − K H) P, Joseph-free but symmetrised.
	for i := 0; i < stateDim; i++ {
		for j := 0; j < stateDim; j++ {
			f.p[i*stateDim+j] += -k[i] * ph[j]
		}
	}
	mat.Symmetrize(f.p[:], stateDim)
}

// UpdateRange fuses one TWR range to an anchor. sigma is the measurement
// standard deviation in metres.
func (f *Filter) UpdateRange(anchor geom.Vec3, measured, sigma float64) error {
	if sigma <= 0 {
		return fmt.Errorf("ekf: range sigma must be positive")
	}
	p := f.Position()
	d := p.Dist(anchor)
	if d < 1e-6 {
		return fmt.Errorf("ekf: tag coincides with anchor; range update undefined")
	}
	u := p.Sub(anchor).Scale(1 / d)
	var hj [stateDim]float64
	hj[0], hj[1], hj[2] = u.X, u.Y, u.Z
	f.scalarUpdate(measured-d, hj, sigma*sigma)
	return nil
}

// UpdateBearing fuses one optical bearing (azimuth + elevation, world
// frame) toward a Lighthouse-style base station. Each angle is processed as
// a scalar measurement with standard deviation sigma.
func (f *Filter) UpdateBearing(station geom.Vec3, azimuth, elevation, sigma float64) error {
	if sigma <= 0 {
		return fmt.Errorf("ekf: bearing sigma must be positive")
	}
	p := f.Position()
	d := p.Sub(station)
	rh2 := d.X*d.X + d.Y*d.Y
	rh := math.Sqrt(rh2)
	if rh < 1e-6 {
		return fmt.Errorf("ekf: tag directly above station; bearing update undefined")
	}
	r2 := rh2 + d.Z*d.Z

	// Azimuth: h = atan2(dy, dx); ∂h/∂x = −dy/rh², ∂h/∂y = dx/rh².
	var hAz [stateDim]float64
	hAz[0] = -d.Y / rh2
	hAz[1] = d.X / rh2
	innovAz := wrapAngle(azimuth - math.Atan2(d.Y, d.X))
	f.scalarUpdate(innovAz, hAz, sigma*sigma)

	// Elevation: h = atan2(dz, rh);
	// ∂h/∂x = −dz·dx/(rh·r²), ∂h/∂y = −dz·dy/(rh·r²), ∂h/∂z = rh/r².
	p = f.Position()
	d = p.Sub(station)
	rh2 = d.X*d.X + d.Y*d.Y
	rh = math.Sqrt(rh2)
	if rh < 1e-6 {
		return nil // azimuth applied; skip the degenerate elevation update
	}
	r2 = rh2 + d.Z*d.Z
	var hEl [stateDim]float64
	hEl[0] = -d.Z * d.X / (rh * r2)
	hEl[1] = -d.Z * d.Y / (rh * r2)
	hEl[2] = rh / r2
	innovEl := wrapAngle(elevation - math.Atan2(d.Z, rh))
	f.scalarUpdate(innovEl, hEl, sigma*sigma)
	return nil
}

// wrapAngle maps an angle difference into (−π, π].
func wrapAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// UpdateTDoA fuses one TDoA range difference |p−anchor| − |p−ref|.
func (f *Filter) UpdateTDoA(anchor, ref geom.Vec3, measured, sigma float64) error {
	if sigma <= 0 {
		return fmt.Errorf("ekf: TDoA sigma must be positive")
	}
	p := f.Position()
	da := p.Dist(anchor)
	dr := p.Dist(ref)
	if da < 1e-6 || dr < 1e-6 {
		return fmt.Errorf("ekf: tag coincides with an anchor; TDoA update undefined")
	}
	ua := p.Sub(anchor).Scale(1 / da)
	ur := p.Sub(ref).Scale(1 / dr)
	g := ua.Sub(ur)
	var hj [stateDim]float64
	hj[0], hj[1], hj[2] = g.X, g.Y, g.Z
	f.scalarUpdate(measured-(da-dr), hj, sigma*sigma)
	return nil
}
