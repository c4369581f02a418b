// Hypertext: structural queries over a hypertext web ([CM89], Section 5).
//
// The paper's prototype could query the Neptune/HAM hypertext server;
// this example generates a hypertext web and runs the kinds of structural
// queries [CM89] describes: reachability between pages, pages co-authored
// along a link path, unreachable pages, and an RPQ evaluated directly on
// the graph with qualifying edges highlighted in DOT — the prototype's
// answer-display mode. It ends by querying a current and a historical
// version of a web held in the transactional Server, the HAM's stand-in.
//
// Build & run:  ./build/examples/hypertext [num_pages]

#include <cstdio>
#include <cstdlib>

#include "graph/data_graph.h"
#include "graphlog/api.h"
#include "rpq/rpq_eval.h"
#include "server/server.h"
#include "storage/database.h"
#include "workload/generators.h"

using namespace graphlog;

int main(int argc, char** argv) {
  workload::HypertextOptions opts;
  if (argc > 1) opts.num_pages = std::atoi(argv[1]);
  storage::Database db;
  if (auto s = workload::Hypertext(opts, &db); !s.ok()) {
    std::fprintf(stderr, "generator failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("hypertext web: %d pages, %zu links\n", opts.num_pages,
              db.Find("link")->size());

  // GraphLog structural queries.
  const char* query =
      "query reachable {\n"
      "  edge P1 -> P2 : link+;\n"
      "  distinguished P1 -> P2 : reachable;\n"
      "}\n"
      "query orphan {\n"
      "  edge P -> A : author;\n"
      "  edge \"page0\" -> P : !(link+ | =);\n"
      "  distinguished P -> A : orphan;\n"
      "}\n"
      // Pages reachable from page0 whose every step stays with one author:
      // the closure parameter threads the author along the path.
      "query same-author-path {\n"
      "  edge P1 -> P2 : authored-link(A)+;\n"
      "  distinguished P1 -> P2 : same-author-path(A);\n"
      "}\n"
      "query authored-link {\n"
      "  edge P1 -> P2 : link;\n"
      "  edge P1 -> A : author;\n"
      "  edge P2 -> A : author;\n"
      "  distinguished P1 -> P2 : authored-link(A);\n"
      "}\n";
  std::printf("\n=== graphical query ===\n%s\n", query);
  auto stats = graphlog::Run(QueryRequest::GraphLog(query), &db);
  if (!stats.ok()) {
    std::fprintf(stderr, "eval failed: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
  std::printf("reachable pairs:        %zu\n", db.Find("reachable")->size());
  std::printf("orphan pages (x auth):  %zu\n", db.Find("orphan")->size());
  std::printf("same-author path pairs: %zu\n",
              db.Find("same-author-path")->size());

  // RPQ on the graph, prototype-style: pages reachable from page0 in
  // 2..3 hops, with the qualifying edges highlighted in DOT.
  graph::DataGraph g = graph::DataGraph::FromDatabase(db);
  rpq::RpqOptions ropts;
  ropts.source = Value::Sym(db.Intern("page0"));
  auto hops = rpq::EvalRpqText(g, "link link link?", &db.symbols(), ropts);
  if (!hops.ok()) {
    std::fprintf(stderr, "rpq failed: %s\n",
                 hops.status().ToString().c_str());
    return 1;
  }
  std::printf("\npages 2-3 link-hops from page0: %zu\n", hops->size());

  // Highlight the direct links out of page0 (the first hop of every
  // qualifying path) on the database graph.
  graph::DotOptions dot;
  dot.graph_name = "web";
  graph::NodeId p0;
  if (g.FindNode(Value::Sym(db.Intern("page0")), &p0)) {
    for (uint32_t ei : g.OutEdges(p0)) dot.highlight_edges.push_back(ei);
  }
  std::printf("\nDOT with highlighted answer frontier written to stdout "
              "(truncated preview):\n");
  std::string d = ToDot(g, db.symbols(), dot);
  std::printf("%.600s...\n", d.c_str());

  // --- The full Section 5 stack: a transactional server -> GraphLog. ------
  // Commit a small web as version 1, pin a session there, retire the API
  // page in version 2, then query both the pinned and a fresh session.
  // The server is declared first: sessions must not outlive it.
  Server server;
  auto ck = [](const Status& s) {
    if (!s.ok()) {
      std::fprintf(stderr, "server: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  };
  ck(server.Apply(WriteBatch().Facts("node(home).\nnode(docs).\nnode(api).\n"
                                     "link(home, docs).\nlink(docs, api).\n"))
         .status());  // version 1
  auto then = server.OpenSession();
  ck(then.status());
  ck(server.Apply(WriteBatch()
                      .Clear("link")
                      .Clear("node")
                      .Facts("node(home).\nnode(docs).\nlink(home, docs).\n"))
         .status());  // the API page is retired in version 2
  auto now = server.OpenSession();
  ck(now.status());
  const char* reach_q =
      "query reach { edge X -> Y : link+; distinguished X -> Y : reach; }";
  ck((*now)->Run(QueryRequest::GraphLog(reach_q)).status());
  ck((*then)->Run(QueryRequest::GraphLog(reach_q)).status());
  std::printf(
      "\nserver-backed store: reach pairs now=%zu, at version 1=%zu "
      "(the retired api page is only reachable in history)\n",
      (*now)->database().Find("reach")->size(),
      (*then)->database().Find("reach")->size());
  return 0;
}
