#!/usr/bin/env bash
# Runs one workload of the lattecc benchmark. From the root of a lattecc
# checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds latteccd and the benchmark program from source into
# .bench_build/ (Go's build cache and temporary files live there too,
# so nothing is written outside the checkout), then runs perfbench/e2e
# (--trace 0: end-to-end metrics) or perfbench/layers (--trace 1:
# per-layer metrics). The last line of standard output is the result.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/latteccd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a lattecc checkout" >&2
	exit 2
fi

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	case "${args[i]}" in
	--trace) trace="${args[i + 1]:-0}" ;;
	--trace=*) trace="${args[i]#--trace=}" ;;
	esac
done

build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/run"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

prog=e2e
if [[ "$trace" == 1 ]]; then
	prog=layers
else
	go build -o "$build/bin/latteccd" ./cmd/latteccd
fi
go -C perfbench build -o "$build/bin/$prog" "./$prog"
exec "$build/bin/$prog" "$@"
