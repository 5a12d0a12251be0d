package main

import (
	"strings"
	"testing"

	"heteroswitch/internal/experiments"
)

// TestRunRejectsEmptyInputBank: -inputs below 1 is a flag error, reported
// before anything is built.
func TestRunRejectsEmptyInputBank(t *testing.T) {
	for _, bank := range []int{0, -1} {
		err := run(config{bank: bank})
		if err == nil || !strings.Contains(err.Error(), "-inputs") {
			t.Fatalf("-inputs %d: got %v, want the -inputs error", bank, err)
		}
	}
}

// TestRunRejectsEmptyModel: -classes below 1 fails at the model builder,
// before the server is built or any request served, instead of panicking
// (negative) or serving a model with no outputs (zero).
func TestRunRejectsEmptyModel(t *testing.T) {
	for _, classes := range []int{0, -2} {
		c := config{opts: experiments.DefaultOptions(), model: "simplecnn", classes: classes,
			bank: 2, requests: 4, concurrency: 1, maxBatch: 2, arrival: "closed:0.5", svcBase: 1}
		err := run(c)
		if err == nil || !strings.Contains(err.Error(), "models:") {
			t.Fatalf("-classes %d: got %v, want the model builder's error", classes, err)
		}
	}
}
