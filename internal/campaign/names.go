package campaign

import (
	"errors"
	"fmt"
	"strings"

	"chatfuzz/internal/core"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/rtl/boom"
	"chatfuzz/internal/rtl/rocket"
)

// The names a fleet is described by: every design Design builds and
// every arm Arm builds, in the order their errors list them.
var (
	DesignNames = []string{"rocket", "boom"}
	ArmNames    = []string{"thehuzz", "randinst", "randfuzz", "chatfuzz", "chatfuzz-learn"}
)

// ErrNeedsPipeline is Arm's error for an LLM arm named without a
// trained pipeline to sample.
var ErrNeedsPipeline = errors.New("needs a trained pipeline")

// Design returns the constructor of the named design under test.
func Design(name string) (func() rtl.DUT, error) {
	switch strings.TrimSpace(name) {
	case "rocket":
		return func() rtl.DUT { return rocket.New() }, nil
	case "boom":
		return func() rtl.DUT { return boom.New() }, nil
	}
	return nil, fmt.Errorf("campaign: unknown design %q (have %s)", name, strings.Join(DesignNames, ", "))
}

// Arm returns the named generator arm over bodies of body
// instructions. The LLM arms (chatfuzz, chatfuzz-learn) sample p and
// refuse a nil one with ErrNeedsPipeline.
func Arm(name string, body int, p *core.Pipeline) (ArmSpec, error) {
	switch name {
	case "thehuzz":
		return TheHuzzArm(body), nil
	case "randinst":
		return RandInstArm(body), nil
	case "randfuzz":
		return RandFuzzArm(body), nil
	case "chatfuzz":
		if p != nil {
			return LLMArm(p), nil
		}
	case "chatfuzz-learn":
		if p != nil {
			return LearningLLMArm(p), nil
		}
	default:
		return ArmSpec{}, fmt.Errorf("campaign: unknown arm %q (have %s)", name, strings.Join(ArmNames, ", "))
	}
	return ArmSpec{}, fmt.Errorf("campaign: arm %q %w", name, ErrNeedsPipeline)
}
