#!/bin/sh
# Runs every native Go fuzz target in the module, one after another,
# each for the same budget (a go test -fuzztime value: 16s, 2m, 500x).
# CI and a person at a terminal call it the same way:
#
#	scripts/fuzz.sh [budget]	# default 16s a target
#
# A new fuzz target goes on the list below, nowhere else. The seed
# corpora already run as subtests of `go test ./...`; this is the
# stretch of coverage-guided fuzzing on top.
set -eu

budget=${1:-16s}

targets='
./internal/isa:FuzzDecodeEncodeRoundTrip
./internal/mem:FuzzMemoryMatchesReference
./internal/prog:FuzzBuild
./internal/simtest:FuzzResumeMatchesReset
./internal/iss:FuzzCycleSkipMatchesStepwise
./internal/rtl/rocket:FuzzCycleSkipMatchesStepwise
./internal/rtl/boom:FuzzCycleSkipMatchesStepwise
./internal/ml/nn:FuzzPackedMatchesPadded
./internal/ml/nn:FuzzLMLossMatchesMasked
./internal/ml/tensor:FuzzAxpy4MatchesScalar
./internal/ml/tensor:FuzzMulRowMatchesScalar
./internal/ml/tensor:FuzzTranscendentalRowsMatchMath
./internal/ml/tok:FuzzCorpusTokenRoundTrip
./internal/campaign:FuzzDecodeCheckpoint
./internal/farm:FuzzReplayWAL
./internal/farm:FuzzSubmitSpec
./internal/mismatch:FuzzAnalyzeSkipMatchesFull
./internal/mismatch:FuzzDetectorStateRoundTrip
'

cd "$(dirname "$0")/.."
for t in $targets; do
	pkg=${t%%:*}
	name=${t#*:}
	echo "fuzz: $name in $pkg for $budget"
	go test -run='^$' -fuzz="^${name}\$" -fuzztime="$budget" "$pkg"
done
