// semstm — umbrella header for the public API.
//
// Reproduction of "Extending TM Primitives using Low Level Semantics"
// (Saad, Palmieri, Hassan, Ravindran — SPAA 2016).
//
// Typical use:
//
//   auto algo = semstm::make_algorithm("snorec");
//   semstm::ThreadCtx ctx(algo->make_tx());
//   semstm::CtxBinder bind(ctx);
//   semstm::TVar<long> balance(100);
//
//   semstm::atomically([&](auto& tx) {  // tx: the bound algorithm's core
//     if (balance.gte(tx, 25))           // TM_GTE — semantic conditional
//       balance.sub(tx, 25);             // TM_DEC — deferred decrement
//   });
#pragma once

#include "core/algorithm.hpp"   // IWYU pragma: export
#include "core/atomically.hpp"  // IWYU pragma: export
#include "core/context.hpp"     // IWYU pragma: export
#include "core/dispatch.hpp"    // IWYU pragma: export
#include "core/semantics.hpp"   // IWYU pragma: export
#include "core/stats.hpp"       // IWYU pragma: export
#include "core/tvar.hpp"        // IWYU pragma: export
#include "core/tx.hpp"          // IWYU pragma: export
#include "core/word.hpp"        // IWYU pragma: export
