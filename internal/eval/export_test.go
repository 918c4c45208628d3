package eval

import "repro/internal/interp"

// Threats returns the rules r can overrule, then the rules r can defeat:
// the two parts of r's threat list, which the fixpoint walks when r
// becomes blocked.
func (v *View) Threats(r int) (over, def []int32) {
	return v.threat[v.threatOff[r]:v.threatMid[r]], v.threat[v.threatMid[r]:v.threatOff[r+1]]
}

// BodyOcc returns the rules with l among their body literals, once per
// occurrence.
func (v *View) BodyOcc(l interp.Lit) []int32 { return v.bodyOcc(l) }
