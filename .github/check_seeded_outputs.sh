#!/usr/bin/env bash
# Same-seed outputs stay bitwise identical. Each perfbench workload's digest
# of its first 27 calls is pinned, and no call may fail its checks.
# perfbench never runs the sum experiment, so `uqe bench` records of both
# experiments are pinned byte for byte as well: with one eps and five
# resamples, and with three eps (several blocks per resample) and nine
# resamples (a per-record reduction longer than numpy's 8-element block).
#
# Run from the repository root, with uqe installed or PYTHONPATH=src.
set -euo pipefail

out=$(python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 0)
echo "$out" | tail -n 1 | grep -F '"failed": 0,' > /dev/null
for digest in \
  9430ab85782c2b60efae4909180975199071cd5c6e18f926b9dcbab422c06399 \
  8ba00d929ddb33a9031a7020a212ef02124709063f809abe1e4ee93be56bc3b3 \
  8419b962ee70f7e33dd9b369f314222cdee86b2d5ea82057dea48d231ef6c2ea \
  a62c44203a8d876b3ed756d128720941abf918d8e6c3ce3b916e234ebabf1a20
do
  echo "$out" | grep -Fx "digest $digest (first 27 calls)"
done

for pin in \
  "quantile bdb06c4c586ff509db53b60d7d05f1d55d2b9e8394ff6e3f0eb0fb6638420937" \
  "sum 3fd7b6e3638e9950e8bcea365ff70109a05804dce325afe347186ba178284a57"
do
  set -- $pin
  got=$(python3 -m uqe.cli bench --input src/uqe/data/smoke.csv --column value --range 0 10 \
    --sample-size 100 --outer 5 --qs 0.25,0.5,0.75,0.9 --seed 909 \
    --experiment "$1" | sha256sum | cut -d ' ' -f 1)
  if [ "$got" != "$2" ]; then echo "uqe bench --experiment $1: $got"; exit 1; fi
  echo "uqe bench --experiment $1: $got"
done

# The three-eps sum records have one form per log1p kernel: numpy's AVX-512
# log1p and its baseline one differ by an ulp in some Laplace draws, and one
# std in its last digit. A runner dispatches one kernel, so it must print
# exactly one of the two.
for pin in \
  "quantile d0ce69bece0e93617f08de145affbf7f9e04d0f1f4c3e20a2e17c74704a12074" \
  "sum 6bafea60e2a109ee48a53991eb52313114a28b422bf739b0a057c84b0667d02d 2260f35ac18dd11ce8621876a818497ff2b3f6167d2f063932cf1fae713139d3"
do
  set -- $pin
  experiment=$1
  shift
  got=$(python3 -m uqe.cli bench --input src/uqe/data/smoke.csv --column value --range 0 10 \
    --sample-size 100 --outer 9 --qs 0.25,0.5,0.75,0.9 --eps 0.5,1,2 --seed 909 \
    --experiment "$experiment" | sha256sum | cut -d ' ' -f 1)
  echo "uqe bench --experiment $experiment --eps 0.5,1,2: $got"
  case " $* " in
    *" $got "*) ;;
    *) exit 1 ;;
  esac
done
