package flexnet

import (
	"fmt"

	"repro/internal/model"
)

// AdvisorInput describes the deployment RecommendParams plans for; its
// fields and their defaults are documented on model.AdvisorInput.
type AdvisorInput = model.AdvisorInput

// Recommendation is the plan RecommendParams returns: (k, d) and what
// they are predicted to cost and guarantee.
type Recommendation = model.Recommendation

// RecommendParams picks the smallest (k, d) meeting in's privacy
// targets — the paper's "data to choose suitable and safe parameters".
func RecommendParams(in AdvisorInput) (*Recommendation, error) {
	rec, err := model.RecommendParams(in)
	if err != nil {
		return nil, fmt.Errorf("flexnet: %w", err)
	}
	return rec, nil
}
