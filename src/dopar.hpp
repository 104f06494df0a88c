#pragma once
// dopar — data-oblivious parallel algorithms in the cache-agnostic binary
// fork-join model (Ramachandran & Shi, SPAA'21). Umbrella header: this is
// the one include an application needs.
//
//   #include "dopar.hpp"
//
//   auto rt = dopar::Runtime::builder().threads(8).seed(42).build();
//   rt.sort_records(std::span(rows), [](const Row& r) { return r.key; });
//   auto labels = rt.connected_components(n, edges);
//
// Everything routes through dopar::Runtime (core/runtime.hpp): a
// per-pipeline execution context owning its thread pool, its sorter
// backend (named registry; see core/backend.hpp), its measurement session
// and its randomness. Async pipelines go through Runtime::submit(), which
// returns a dopar::Future. See README.md for the quickstart, the backend
// table and the migration table from the pre-façade free functions
// (removed in PR 3).

#include "core/backend.hpp"
#include "core/future.hpp"
#include "core/runtime.hpp"
#include "obs/obs.hpp"
#include "rel/rel.hpp"
#include "svc/service.hpp"

namespace dopar {

// Convenience aliases: the façade vocabulary at namespace scope, so
// applications write dopar::Runtime, dopar::Elem, dopar::SortParams, ...
// without spelunking the layer namespaces. (SorterBackend, Future,
// register_backend, make_backend and backend_names already live at
// namespace dopar scope.)
using core::SortParams;
using obl::Elem;
using sched::SchedPolicy;
using apps::Edge;
using apps::ExprTree;
using apps::GEdge;
using apps::TreeFunctions;
// Relational operators (rel/rel.hpp): the vocabulary of
// Runtime::equi_join / band_join / group_by_aggregate.
using rel::Agg;
using rel::GroupByOptions;
using rel::GroupByResult;
using rel::GroupRow;
using rel::JoinOptions;
using rel::JoinResult;
// Serving layer (svc/service.hpp): dopar::Service batches many small sort
// requests over one Runtime; its knobs stay namespaced (dopar::svc::Options,
// dopar::svc::SubmitTimeout).
using svc::Service;

}  // namespace dopar
