"""Query-biased extractive descriptions for math expressions."""

from .corpus import Corpus, Document, MathItem, Sentence, load_corpus, tokenize
from .errors import (DimensionMismatch, DuplicateTitle, EmptyCorpus, EmptyPool,
                     EmptyVectorFile, InstanceTooLarge, MalformedRecord,
                     MathGlossError, NotUtf8, ParseError, QueryParseError,
                     UnknownVertex)
from .mathtree import MathNode, MathTree, parse_expression, tree_similarity
from .pipeline import PipelineConfig, Trace, cli_run, describe
from .retrieval import Query, Topic, rank_topics
from .selector import TimestampedDoc, extract_timeline, select_relevant
from .summarizer import (Description, IlpInstance, PoolSentence, Selection,
                         build_instance, extract_concepts, order_sentences,
                         solve_ilp, verify_selection)
from .textsim import EmbeddingStore, avg_vector, cosine, load_stopwords, load_vectors
from .trg import BuildReport, Edge, TopicRelationGraph, build_trg

__version__ = "0.1.0"
