"""Topic vocabularies used by the synthetic corpus generators.

The paper evaluates on four real XML collections (DBLP, IEEE/INEX,
Shakespeare, Wikipedia/INEX) that are not redistributable here; the
reproduction generates synthetic collections whose *content* classes are
driven by the per-topic vocabularies below.  Documents of a topical class
draw most of their terms from the class vocabulary plus a shared filler
vocabulary, which creates the intra-class cohesion / inter-class separation
the clustering algorithms are supposed to discover.

Vocabularies are plain Python lists so experiments remain fully
deterministic and dependency-free.
"""

from __future__ import annotations

from typing import Dict, List

#: Generic academic / encyclopedic filler terms shared by every topic.
FILLER_WORDS: List[str] = [
    "approach", "analysis", "method", "result", "study", "evaluation",
    "system", "model", "process", "design", "development", "application",
    "framework", "technique", "problem", "solution", "performance",
    "experiment", "overview", "introduction", "discussion", "section",
    "example", "definition", "property", "structure", "function", "value",
    "measure", "comparison", "history", "theory", "practice", "review",
]

#: Topic name -> characteristic vocabulary.  Topics cover the union of the
#: classes used by the four synthetic corpora.
TOPICS: Dict[str, List[str]] = {
    # ---- DBLP topical classes (Sec. 5.2: six topic classes) -------------- #
    "multimedia": [
        "multimedia", "video", "audio", "image", "streaming", "codec",
        "compression", "rendering", "animation", "media", "visual", "frame",
        "pixel", "color", "texture", "synchronization", "broadcast", "scene",
        "capture", "playback", "encoding", "resolution",
    ],
    "logic_programming": [
        "logic", "prolog", "predicate", "clause", "resolution", "unification",
        "datalog", "deduction", "horn", "semantics", "fixpoint", "inference",
        "rule", "negation", "stratified", "answer", "program", "declarative",
        "constraint", "grounding", "herbrand", "query",
    ],
    "web_adaptive": [
        "web", "adaptive", "hypermedia", "personalization", "user", "profile",
        "recommendation", "navigation", "browser", "hypertext", "link",
        "portal", "session", "click", "page", "adaptation", "preference",
        "usability", "interface", "content", "site", "surfing",
    ],
    "knowledge_systems": [
        "knowledge", "ontology", "reasoning", "expert", "agent", "semantic",
        "representation", "inference", "taxonomy", "concept", "frame",
        "description", "rdf", "owl", "rule", "acquisition", "engineering",
        "base", "intelligent", "decision", "support", "domain",
    ],
    "software_engineering": [
        "software", "engineering", "requirement", "specification", "testing",
        "architecture", "component", "refactoring", "maintenance", "agile",
        "pattern", "uml", "module", "verification", "validation", "release",
        "bug", "defect", "repository", "versioning", "deployment", "quality",
    ],
    "formal_languages": [
        "automata", "grammar", "language", "regular", "context", "free",
        "parsing", "finite", "state", "transducer", "alphabet", "string",
        "decidability", "complexity", "turing", "machine", "acceptance",
        "derivation", "production", "pumping", "lemma", "recognizer",
    ],
    # ---- IEEE topical classes (eight classes) ----------------------------- #
    "computer": [
        "computer", "processor", "architecture", "instruction", "pipeline",
        "cache", "memory", "register", "chip", "circuit", "microprocessor",
        "throughput", "latency", "benchmark", "simulation", "superscalar",
        "branch", "prediction", "fetch", "execution", "cycle", "hardware",
    ],
    "graphics": [
        "graphics", "rendering", "shader", "polygon", "mesh", "raster",
        "geometry", "lighting", "shadow", "texture", "vertex", "surface",
        "modeling", "animation", "visualization", "camera", "projection",
        "illumination", "ray", "tracing", "volume", "scene",
    ],
    "hardware": [
        "hardware", "vlsi", "fpga", "gate", "transistor", "layout",
        "synthesis", "verification", "logic", "circuit", "clock", "signal",
        "routing", "placement", "fabrication", "silicon", "voltage", "power",
        "timing", "netlist", "asic", "embedded",
    ],
    "artificial_intelligence": [
        "learning", "neural", "network", "classification", "training",
        "feature", "clustering", "regression", "bayesian", "reinforcement",
        "genetic", "optimization", "heuristic", "search", "planning",
        "perception", "recognition", "intelligence", "supervised", "kernel",
        "gradient", "agent",
    ],
    "internet": [
        "internet", "protocol", "routing", "tcp", "packet", "router",
        "bandwidth", "congestion", "http", "dns", "address", "gateway",
        "topology", "traffic", "latency", "peer", "overlay", "socket",
        "firewall", "multicast", "datagram", "service",
    ],
    "mobile": [
        "mobile", "wireless", "cellular", "handover", "antenna", "spectrum",
        "bluetooth", "roaming", "basestation", "channel", "fading", "signal",
        "smartphone", "battery", "location", "gsm", "wifi", "sensor",
        "adhoc", "energy", "coverage", "mobility",
    ],
    "parallel": [
        "parallel", "distributed", "cluster", "thread", "synchronization",
        "speedup", "scalability", "mpi", "openmp", "scheduling", "load",
        "balancing", "multiprocessor", "shared", "message", "passing",
        "barrier", "lock", "concurrency", "grid", "partition", "workload",
    ],
    "security": [
        "security", "encryption", "cryptography", "authentication", "key",
        "attack", "intrusion", "vulnerability", "malware", "firewall",
        "privacy", "signature", "certificate", "hash", "cipher", "protocol",
        "access", "control", "threat", "detection", "trust", "forensics",
    ],
    # ---- Shakespeare content classes (five plays) ------------------------- #
    "hamlet": [
        "hamlet", "denmark", "elsinore", "ghost", "ophelia", "claudius",
        "gertrude", "polonius", "horatio", "laertes", "prince", "madness",
        "revenge", "yorick", "rosencrantz", "guildenstern", "soliloquy",
        "poison", "duel", "castle", "king", "queen",
    ],
    "macbeth": [
        "macbeth", "scotland", "witches", "banquo", "duncan", "thane",
        "cawdor", "dunsinane", "birnam", "lady", "dagger", "prophecy",
        "macduff", "fleance", "murder", "crown", "sleep", "blood",
        "ambition", "forest", "battle", "spirits",
    ],
    "othello": [
        "othello", "venice", "iago", "desdemona", "cassio", "cyprus",
        "moor", "handkerchief", "jealousy", "roderigo", "emilia", "brabantio",
        "lieutenant", "ensign", "senate", "turk", "deception", "honest",
        "strawberry", "willow", "smother", "general",
    ],
    "henry_vi": [
        "henry", "england", "france", "york", "lancaster", "talbot",
        "margaret", "somerset", "gloucester", "warwick", "joan", "rouen",
        "crown", "rose", "rebellion", "cade", "suffolk", "plantagenet",
        "battle", "regent", "dauphin", "throne",
    ],
    "henry_viii": [
        "henry", "wolsey", "katherine", "anne", "boleyn", "buckingham",
        "cranmer", "cardinal", "divorce", "court", "trial", "coronation",
        "chamberlain", "norfolk", "ambassador", "ceremony", "masque",
        "palace", "council", "archbishop", "christening", "prophecy",
    ],
    # ---- Additional Wikipedia portals (21 thematic categories total) ------ #
    "astronomy": [
        "astronomy", "galaxy", "telescope", "planet", "star", "orbit",
        "nebula", "cosmology", "asteroid", "comet", "supernova", "stellar",
        "luminosity", "spectrum", "observatory", "eclipse", "satellite",
        "universe", "redshift", "gravity", "solar", "lunar",
    ],
    "biology": [
        "biology", "cell", "gene", "protein", "organism", "evolution",
        "species", "dna", "enzyme", "membrane", "chromosome", "bacteria",
        "ecology", "mutation", "genome", "tissue", "photosynthesis",
        "metabolism", "taxonomy", "habitat", "molecular", "physiology",
    ],
    "chemistry": [
        "chemistry", "molecule", "atom", "reaction", "compound", "element",
        "bond", "acid", "base", "catalyst", "electron", "ion", "oxidation",
        "polymer", "solvent", "synthesis", "organic", "crystal", "periodic",
        "valence", "isotope", "titration",
    ],
    "economics": [
        "economics", "market", "price", "inflation", "trade", "demand",
        "supply", "currency", "investment", "monetary", "fiscal", "growth",
        "unemployment", "capital", "labor", "tax", "equilibrium", "interest",
        "gdp", "export", "import", "policy",
    ],
    "geography": [
        "geography", "continent", "river", "mountain", "climate", "ocean",
        "desert", "plateau", "island", "population", "region", "border",
        "terrain", "latitude", "longitude", "glacier", "valley", "peninsula",
        "rainfall", "erosion", "volcano", "delta",
    ],
    "history": [
        "history", "empire", "war", "revolution", "dynasty", "treaty",
        "medieval", "ancient", "colonial", "monarchy", "civilization",
        "conquest", "republic", "reform", "archive", "chronicle", "heritage",
        "century", "kingdom", "siege", "alliance", "independence",
    ],
    "literature": [
        "literature", "novel", "poetry", "author", "narrative", "fiction",
        "drama", "prose", "verse", "metaphor", "chapter", "character",
        "plot", "genre", "publisher", "manuscript", "criticism", "romantic",
        "satire", "tragedy", "comedy", "anthology",
    ],
    "mathematics": [
        "mathematics", "theorem", "proof", "algebra", "geometry", "calculus",
        "topology", "integer", "polynomial", "matrix", "vector", "function",
        "derivative", "integral", "probability", "statistics", "conjecture",
        "axiom", "lemma", "manifold", "equation", "symmetry",
    ],
    "medicine": [
        "medicine", "disease", "patient", "treatment", "diagnosis", "therapy",
        "clinical", "surgery", "infection", "vaccine", "symptom", "syndrome",
        "hospital", "pharmacology", "dosage", "anatomy", "cardiac", "tumor",
        "immune", "antibiotic", "epidemiology", "pathology",
    ],
    "music": [
        "music", "melody", "harmony", "rhythm", "orchestra", "symphony",
        "composer", "concerto", "guitar", "piano", "chord", "tempo",
        "soprano", "album", "concert", "opera", "ballad", "acoustic",
        "percussion", "choir", "sonata", "lyrics",
    ],
    "philosophy": [
        "philosophy", "ethics", "metaphysics", "epistemology", "logic",
        "existence", "consciousness", "morality", "rationalism", "empiricism",
        "dialectic", "phenomenology", "ontology", "virtue", "justice",
        "skepticism", "idealism", "pragmatism", "argument", "premise",
        "truth", "reason",
    ],
    "politics": [
        "politics", "government", "election", "parliament", "democracy",
        "constitution", "legislation", "senate", "party", "vote", "campaign",
        "policy", "minister", "diplomacy", "referendum", "coalition",
        "congress", "judiciary", "amendment", "governance", "sovereignty",
        "federal",
    ],
    "sports": [
        "sport", "football", "tournament", "championship", "league", "match",
        "player", "team", "coach", "goal", "olympic", "stadium", "athlete",
        "score", "season", "cricket", "tennis", "marathon", "medal",
        "referee", "fixture", "transfer",
    ],
}


#: Family names used for synthetic author / character names.
SURNAMES: List[str] = [
    "Smith", "Mueller", "Rossi", "Tanaka", "Garcia", "Kumar", "Novak",
    "Silva", "Petrov", "Nielsen", "Dubois", "Costa", "Haddad", "Olsen",
    "Marino", "Fischer", "Moreau", "Sato", "Lindgren", "Horvat", "Keller",
    "Vargas", "Baker", "Romano", "Stewart", "Janssen", "Weber", "Fontaine",
]

#: Given names used for synthetic author / character names.
GIVEN_NAMES: List[str] = [
    "Ada", "Boris", "Carla", "Diego", "Elena", "Farid", "Greta", "Hugo",
    "Irene", "Jonas", "Karin", "Luca", "Mara", "Nikolai", "Olga", "Pavel",
    "Quinn", "Rosa", "Stefan", "Tara", "Ulrich", "Vera", "Walter", "Xenia",
]

#: Journal / conference name fragments for bibliographic corpora.
VENUE_WORDS: List[str] = [
    "Journal", "Transactions", "Conference", "Symposium", "Workshop",
    "Letters", "Review", "Bulletin", "Proceedings", "Annals",
]
