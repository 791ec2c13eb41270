#!/usr/bin/env bash
# doccheck.sh — fail when any package in the module lacks a package
# comment. The operator docs (README, docs/ARCHITECTURE.md) lean on
# godoc being present for every package, so an undocumented package is
# a CI failure, not a style nit.
#
#   scripts/doccheck.sh
set -euo pipefail
cd "$(dirname "$0")/.."

missing=0
while IFS=$'\t' read -r pkg doc; do
	if [ -z "${doc}" ]; then
		echo "doccheck: missing package comment: ${pkg}" >&2
		missing=1
	fi
done < <(go list -f $'{{.ImportPath}}\t{{.Doc}}' ./...)

# Every package must also be placed in the operator docs: a package
# that neither README.md's package map nor docs/ARCHITECTURE.md
# mentions is invisible to someone navigating the repo top-down.
for pkg in $(go list ./internal/... ./cmd/...); do
	rel="${pkg#atom/}"
	if ! grep -q "${rel}" README.md docs/ARCHITECTURE.md; then
		echo "doccheck: ${rel} is not mentioned in README.md or docs/ARCHITECTURE.md" >&2
		missing=1
	fi
done

# One architecture document: docs/ARCHITECTURE.md holds the paper map,
# the round lifecycle and the subsystem internals.
if [ -e ARCHITECTURE.md ]; then
	echo "doccheck: ARCHITECTURE.md belongs in docs/ARCHITECTURE.md (one architecture document)" >&2
	missing=1
fi

if [ "${missing}" -ne 0 ]; then
	exit 1
fi
echo "doccheck: every package has a package comment and a docs mention"
