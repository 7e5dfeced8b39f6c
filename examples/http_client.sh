#!/usr/bin/env sh
# JSON wire format of the cpd_serve HTTP endpoints, as curl one-liners.
#
# Start a server first (the .cpdb bundles the vocabulary, so textual
# rank queries need no --vocab file):
#   ./build/cpd_train --users N --docs docs.tsv --friends friends.tsv \
#       --diffusion diffusion.tsv --model_binary model.cpdb
#   ./build/cpd_serve --model model.cpdb --port 8080 --threads 4
#
# Usage: examples/http_client.sh [host:port]

set -e
BASE="http://${1:-127.0.0.1:8080}"

echo "# liveness + serving generation"
curl -s "$BASE/healthz"
echo

echo "# membership: top-k communities of user 3 (POST form)"
curl -s -X POST "$BASE/v1/query" \
  -d '{"type":"membership","user":3,"top_k":5,"include_distribution":false}'
echo

echo "# the same query as a GET shortcut"
curl -s "$BASE/v1/membership/3?k=5"
echo

echo "# Eq. 19 community ranking for a textual query (bundled vocabulary)"
curl -s -X POST "$BASE/v1/query" \
  -d '{"type":"rank","query":"solar power","top_k":3}'
echo

echo "# ...or with raw word ids (works without any vocabulary)"
curl -s -X POST "$BASE/v1/query" \
  -d '{"type":"rank","words":[1,2],"top_k":3}'
echo

echo "# Eq. 18 diffusion probability (needs a server started with the graph:"
echo "#   --users/--docs/--friends/--diffusion; 409 otherwise)"
curl -s -X POST "$BASE/v1/query" \
  -d '{"type":"diffusion","source":0,"target":1,"document":7,"time_bin":2}'
echo

echo "# strongest members of community 2"
curl -s -X POST "$BASE/v1/query" \
  -d '{"type":"top_users","community":2,"top_k":10}'
echo

echo "# a batch: positionally aligned responses, per-slot errors"
curl -s -X POST "$BASE/v1/query" \
  -d '{"batch":[{"type":"membership","user":0},{"type":"top_users","community":0,"top_k":3}]}'
echo

echo "# hot swap: re-read the artifact with zero downtime"
curl -s -X POST "$BASE/admin/reload"
echo

echo "# serving counters"
curl -s "$BASE/statsz"
echo
