package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// reference.json holds every trial's simulated-values digest at seed 0,
// by workload and trial id. Regenerate it, after a change that is meant
// to move simulated values, with
//
//	go test -run TestReference -update
//
//go:embed reference.json
var referenceJSON []byte

func loadReference() (map[string]map[string]string, error) {
	var refs map[string]map[string]string
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}
